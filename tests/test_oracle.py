import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayplan import oracle
from relayplan.modes import STATE_MODE, policy_states
from relayplan.rates import exact_rates
from relayplan.scenario import (
    channel_gain,
    default_scenario,
    scenario_from_dict,
    vehicle_paths,
)

from references import select_mode

STATIC_RAW = {
    "bs_position_m": [0.0, 0.0, 0.0],
    "uav_height_m": 100.0,
    "uav_start_m": [250.0, 250.0],
    "uav_end_m": [250.0, 250.0],
    "uav_max_speed_mps": 30.0,
    "slot_duration_s": 0.1,
    "slot_count": 1,
    "flight_box_m": [0.0, 1000.0, 0.0, 1000.0],
    "vehicle_initial_m": [[700.0, 400.0], [702.0, 500.0]],
    "vehicle_velocity_mps": [[0.0, 0.0], [0.0, 0.0]],
    "bandwidth_hz": 1.0e7,
    "noise_density_dbm_per_hz": -174.0,
    "reference_snr_db": 70.0,
    "avg_bs_power_w": 0.5,
    "avg_relay_power_w": 0.5,
    "rate_targets_bpshz": [0.0, 0.0],
    "mode_threshold_bpshz": 0.1,
}


def static_scenario(**overrides):
    raw = dict(STATIC_RAW)
    raw.update(overrides)
    return scenario_from_dict(raw)


# Two vehicles on neighbouring lanes drive past each other, so the nearer
# vehicle changes during the horizon; on the 3 x 3 grid of MOVING_GRID the
# cells at x = 160 m schedule SIC at vehicle 2, then OMA, then SIC at vehicle 1.
MOVING_RAW = dict(
    STATIC_RAW,
    uav_start_m=[130.0, 130.0],
    uav_end_m=[130.0, 130.0],
    slot_duration_s=1.0,
    slot_count=6,
    flight_box_m=[100.0, 160.0, 100.0, 160.0],
    vehicle_initial_m=[[-170.0, 450.0], [400.0, 470.0]],
    vehicle_velocity_mps=[[80.0, 0.0], [-80.0, 0.0]],
)
MOVING_GRID = dict(xy_step=30.0, power_step=0.1)


def moving_scenario(**overrides):
    raw = dict(MOVING_RAW)
    raw.update(overrides)
    return scenario_from_dict(raw)


def grid_axis(lo, hi, step):
    return [lo + step * i for i in range(round((hi - lo) / step) + 1)]


def cell_gains(sc, x, y):
    """(h_r, h_1 per slot, h_2 per slot) with the relay parked at (x, y)."""
    paths = vehicle_paths(sc)
    h_r = float(channel_gain([x, y], sc.bs_position[:2], sc.uav_height, sc.beta0))
    h_1, h_2 = (channel_gain(np.array([x, y]), paths[k], sc.uav_height, sc.beta0) for k in (0, 1))
    return h_r, h_1, h_2


def cell_modes(sc, h_r, h_1, h_2):
    return np.array([select_mode(h_r, a, b, sc.mode_threshold)[1] for a, b in zip(h_1, h_2)])


def plain_enumeration(sc, xy_step, power_step, objective):
    """First best (value, position, powers), one exact_rates call per grid point.

    Cells and power triples are walked in (x, y, p1, p2, pr) order and only a
    strictly better score replaces the best, so ties go to the smallest index
    tuple.  The position is None when no candidate meets the rate targets.
    """
    x_min, x_max, y_min, y_max = sc.flight_box
    bs_levels = grid_axis(0.0, 2 * sc.avg_bs_power, power_step * sc.avg_bs_power)
    relay_levels = grid_axis(0.0, 2 * sc.avg_relay_power, power_step * sc.avg_relay_power)
    t1, t2 = sc.rate_targets
    best = (-math.inf, None, None)
    for x in grid_axis(x_min, x_max, xy_step):
        for y in grid_axis(y_min, y_max, xy_step):
            h_r, h_1, h_2 = cell_gains(sc, x, y)
            modes = cell_modes(sc, h_r, h_1, h_2) if objective == "sum" else np.full(h_1.shape, 3)
            for p1, p2, pr in itertools.product(bs_levels, bs_levels, relay_levels):
                if p1 + p2 > sc.avg_bs_power * (1 + 1e-12) or pr > sc.avg_relay_power * (1 + 1e-12):
                    continue
                r1, r2 = exact_rates(modes, h_r, h_1, h_2, p1, p2, pr, sc.noise_power)
                if objective == "min":
                    score = float(np.minimum(r1, r2).min())
                elif np.all(r1 >= t1) and np.all(r2 >= t2):
                    score = float((r1 + r2).sum())
                else:
                    continue
                if score > best[0]:
                    best = (score, (x, y), (p1, p2, pr))
    return best


@settings(max_examples=200, deadline=None)
@given(
    h_r=st.floats(1e-6, 1e3),
    h_1=st.floats(1e-6, 1e3),
    h_2=st.floats(1e-6, 1e3),
    r_th=st.floats(0.0, 2.0),
)
@example(h_r=1.0, h_1=1.0000000000000002e-06, h_2=1e-06, r_th=0.0)  # one-ulp gain ratio
@example(h_r=2.0, h_1=1.0, h_2=1.0, r_th=0.0)  # equal vehicle gains, relay above
@example(h_r=0.5, h_1=1.0, h_2=1.0, r_th=0.0)  # equal vehicle gains, relay below
@example(h_r=1.0, h_1=1.0, h_2=1.0, r_th=0.0)  # all three equal
@example(h_r=4.0, h_1=4.0, h_2=1.0, r_th=0.0)  # relay ties the larger gain
@example(h_r=4.0, h_1=1.0, h_2=4.0, r_th=0.0)
@example(h_r=1.0, h_1=4.0, h_2=1.0, r_th=0.0)  # relay ties the smaller gain
@example(h_r=1.0, h_1=1.0, h_2=4.0, r_th=0.0)
def test_policy_states_match_scalar_selection(h_r, h_1, h_2, r_th):
    state = int(policy_states(np.array([h_r]), np.array([h_1]), np.array([h_2]), r_th)[0])
    assert (state, STATE_MODE[state]) == select_mode(h_r, h_1, h_2, r_th)


def test_policy_states_reject_nonpositive_gains():
    good = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        policy_states(np.array([0.0, 1.0]), good, good, 0.1)
    with pytest.raises(ValueError):
        policy_states(good, good, np.array([1.0, -2.0]), 0.1)


def test_single_point_grid_returns_that_point():
    # the box is narrower than one grid step in both axes
    sc = static_scenario(
        flight_box_m=[350.0, 354.0, 230.0, 234.0],
        uav_start_m=[350.0, 230.0],
        uav_end_m=[350.0, 230.0],
    )
    pos, powers, best = oracle.static_placement_oracle(sc, xy_step=5.0, power_step=1.0)
    assert np.array_equal(pos, [350.0, 230.0])
    assert best > 0.0
    assert powers[0] + powers[1] <= sc.avg_bs_power + 1e-12


def test_empty_power_grid_is_an_error():
    sc = static_scenario()
    with pytest.raises(ValueError):
        oracle.static_placement_oracle(sc, xy_step=5.0, power_step=-0.1)
    with pytest.raises(ValueError):
        oracle.static_placement_oracle(sc, xy_step=0.0, power_step=0.5)
    with pytest.raises(ValueError):
        oracle.static_placement_oracle(sc, xy_step=5.0, power_step=0.5, objective="max")


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("step", ["xy_step", "power_step"])
def test_grid_steps_must_be_finite(step, bad):
    steps = dict(xy_step=5.0, power_step=0.5)
    steps[step] = bad
    with pytest.raises(ValueError, match="finite and positive"):
        oracle.static_placement_oracle(static_scenario(), **steps)


def test_min_objective_finds_perpendicular_bisector():
    sc = static_scenario(
        flight_box_m=[0.0, 1000.0, -500.0, 500.0],
        vehicle_initial_m=[[700.0, 60.0], [700.0, -60.0]],
    )
    pos, _, best = oracle.static_placement_oracle(sc, xy_step=25.0, power_step=0.1, objective="min")
    assert best > 0.0
    assert abs(pos[1]) <= 25.0


def assert_chunking_ignored(monkeypatch, sc, **grid):
    """The search returns the same cell, powers and value with chunks of 1
    and of 7 cells in either pass as with its default chunks: each grid
    search gets ``CHUNK_EVALS`` set to that many cells' rate evaluations,
    once per slot (pass 1's chunks and the scoring's) and once per triple
    (pass 2's chunks)."""
    runs = [oracle.static_placement_oracle(sc, **grid)]
    real = oracle._grid_search
    for cells, per_slot in itertools.product((1, 7), (True, False)):
        def search(sc_, xs, ys, p1_tri, *rest, cells=cells, per_slot=per_slot):
            evals = cells * p1_tri.size * (sc_.slot_count if per_slot else 1)
            monkeypatch.setattr(oracle, "CHUNK_EVALS", evals)
            return real(sc_, xs, ys, p1_tri, *rest)

        monkeypatch.setattr(oracle, "_grid_search", search)
        runs.append(oracle.static_placement_oracle(sc, **grid))
    for pos, powers, best in runs[1:]:
        assert np.array_equal(pos, runs[0][0])
        assert np.array_equal(powers, runs[0][1])
        assert best == runs[0][2]


def test_grid_results_ignore_chunking(monkeypatch):
    sc = static_scenario(
        flight_box_m=[300.0, 400.0, 150.0, 250.0],
        uav_start_m=[350.0, 200.0],
        uav_end_m=[350.0, 200.0],
    )
    assert_chunking_ignored(monkeypatch, sc, xy_step=25.0, power_step=0.2)


@pytest.mark.parametrize(
    "objective, overrides",
    [("sum", {}), ("min", {}), ("sum", {"rate_targets_bpshz": [1.5, 1.5]})],
    ids=["sum", "min", "sum-targets"],
)
def test_grid_results_ignore_chunking_across_modes(monkeypatch, objective, overrides):
    # under positive targets the weakest-link screen runs per chunk, down to
    # one cell at a time
    assert_chunking_ignored(monkeypatch, moving_scenario(**overrides), objective=objective, **MOVING_GRID)


@pytest.mark.parametrize(
    "objective, position, powers, value",
    [("sum", (340.0, 180.0), (0.3, 0.2, 0.5), 2192.868883861737),
     ("min", (300.0, 400.0), (0.3, 0.2, 0.5), 1.449576151908911)],
)
def test_default_scenario_grid_optima(objective, position, powers, value):
    # the 600-slot default on the 20 m, 0.2-step grid that relaybench's
    # oracle-grid workload searches
    pos, got_powers, best = oracle.static_placement_oracle(
        default_scenario(), xy_step=20.0, power_step=0.2, objective=objective)
    assert tuple(pos) == position
    assert got_powers == pytest.approx(powers, rel=1e-12)
    assert best == value  # the repr: the benchmark grid's optimum bit for bit


@pytest.mark.parametrize("objective", ["sum", "min"])
def test_refining_the_grid_never_loses_value(objective):
    sc = static_scenario(
        flight_box_m=[300.0, 420.0, 160.0, 280.0],
        uav_start_m=[360.0, 220.0],
        uav_end_m=[360.0, 220.0],
    )
    _, _, coarse = oracle.static_placement_oracle(sc, xy_step=40.0, power_step=0.2, objective=objective)
    _, _, fine = oracle.static_placement_oracle(sc, xy_step=20.0, power_step=0.1, objective=objective)
    assert fine >= coarse - 1e-12


@pytest.mark.parametrize("objective", ["sum", "min"])
def test_matches_plain_enumeration(objective):
    sc = static_scenario(
        flight_box_m=[320.0, 380.0, 180.0, 240.0],
        uav_start_m=[350.0, 210.0],
        uav_end_m=[350.0, 210.0],
    )
    assert matches_plain_enumeration(sc, objective, xy_step=30.0, power_step=0.25)


def matches_plain_enumeration(sc, objective, **grid):
    """Assert the oracle agrees with plain_enumeration; return whether any candidate is feasible."""
    best = plain_enumeration(sc, objective=objective, **grid)
    if best[1] is None:
        # the top-pr scan finds nothing, and no lower pr can do better
        with pytest.raises(ValueError, match="rate targets"):
            oracle.static_placement_oracle(sc, objective=objective, **grid)
        return False
    got_pos, got_powers, got_best = oracle.static_placement_oracle(sc, objective=objective, **grid)
    assert got_best == pytest.approx(best[0], rel=1e-12)
    assert tuple(got_pos) == best[1]
    assert tuple(got_powers) == best[2]
    return True


@pytest.mark.parametrize(
    "objective, targets, feasible",
    [("sum", [1.5, 1.5], True), ("sum", [0.0, 0.0], True), ("min", [1.5, 1.5], True),
     ("sum", [3.0, 3.0], False)],
    ids=["sum-targets", "sum-zero-targets", "min", "sum-infeasible-targets"],
)
def test_matches_plain_enumeration_across_modes(objective, targets, feasible):
    sc = moving_scenario(rate_targets_bpshz=targets)
    x_min, x_max, y_min, y_max = sc.flight_box
    step = MOVING_GRID["xy_step"]
    cells = itertools.product(grid_axis(x_min, x_max, step), grid_axis(y_min, y_max, step))
    mixed = [(x, y) for x, y in cells if {1, 2, 3} <= set(cell_modes(sc, *cell_gains(sc, x, y)))]
    assert mixed
    assert matches_plain_enumeration(sc, objective, **MOVING_GRID) == feasible
    # each mixed-mode cell on its own, so its best triple is checked even
    # where it is not the optimum of the whole grid
    for x, y in mixed:
        matches_plain_enumeration(one_cell(sc, x, y), objective, **MOVING_GRID)


def one_cell(sc, x, y):
    """The scenario with its flight box shrunk to the grid cell (x, y)."""
    xy = np.array([x, y])
    return dataclasses.replace(sc, flight_box=np.array([x, x + 1.0, y, y + 1.0]), uav_start=xy, uav_end=xy)


def test_matches_plain_enumeration_when_targets_rule_out_some_cells(monkeypatch):
    # Asymmetric targets on a 4 x 4 grid: the weakest-link screen drops the
    # cells where no triple meets them, and in some kept cells it drops some
    # triples but not all; only the (cell, triple) pairs it keeps are scored.
    sc = moving_scenario(rate_targets_bpshz=[0.5, 2.0])
    grid = dict(xy_step=20.0, power_step=0.2)
    kept = []
    real = oracle._weakest_link_ok

    def spy(*args):
        ok = real(*args)
        kept.extend(ok.mean(axis=1))
        return ok

    monkeypatch.setattr(oracle, "_weakest_link_ok", spy)
    assert matches_plain_enumeration(sc, "sum", **grid)
    assert any(0.0 < share < 1.0 for share in kept)
    x_min, x_max, y_min, y_max = sc.flight_box
    cells = itertools.product(grid_axis(x_min, x_max, 20.0), grid_axis(y_min, y_max, 20.0))
    feasible = [matches_plain_enumeration(one_cell(sc, x, y), "sum", **grid) for x, y in cells]
    assert any(feasible) and not all(feasible)


def moving_grid_chunk(sc, power_step):
    """The moving grid's per-slot arrays and every feasible triple, as
    ``_grid_search`` builds them: (modes, h_r, h_1, h_2, p1, p2, pr, oma)."""
    x_min, x_max, y_min, y_max = sc.flight_box
    step = MOVING_GRID["xy_step"]
    cells = [cell_gains(sc, x, y) for x, y in itertools.product(
        grid_axis(x_min, x_max, step), grid_axis(y_min, y_max, step))]
    h_r = np.array([c[0] for c in cells])
    h_1, h_2 = (np.array([c[k] for c in cells]) for k in (1, 2))
    modes = np.array([cell_modes(sc, *c) for c in cells])
    bs_levels = grid_axis(0.0, 2 * sc.avg_bs_power, power_step * sc.avg_bs_power)
    relay_levels = grid_axis(0.0, sc.avg_relay_power, power_step * sc.avg_relay_power)
    p1, p2, pr = np.array([t for t in itertools.product(bs_levels, bs_levels, relay_levels)
                           if t[0] + t[1] <= sc.avg_bs_power * (1 + 1e-12)]).T
    oma = tuple(np.unique(np.stack([p, pr], axis=1), axis=0, return_inverse=True) for p in (p1, p2))
    return modes, h_r, h_1, h_2, p1, p2, pr, oma


@pytest.mark.parametrize("targets", [[0.0, 0.0], [1.5, 1.5]], ids=["no-targets", "targets"])
def test_jensen_bound_covers_every_exact_score(targets):
    # every cell of the moving grid, the mixed-mode ones included, and every
    # triple of the grid at every relay power
    sc = moving_scenario(rate_targets_bpshz=targets)
    modes, h_r, h_1, h_2, p1, p2, pr, oma = moving_grid_chunk(sc, MOVING_GRID["power_step"])
    assert any({1, 2, 3} <= set(m) for m in modes)
    count, sum_1, sum_2, _, _ = oracle._mode_stats(modes, h_1, h_2, False)
    out = np.empty((h_r.size, p1.size))
    bound = oracle._jensen_bound(count, sum_1, sum_2, h_r, p1, p2, pr, oma, sc.noise_power, out)
    t1, t2 = sc.rate_targets
    for c in range(len(h_r)):
        shape = (p1.size, modes.shape[1])
        r1, r2 = exact_rates(np.broadcast_to(modes[c], shape), h_r[c], h_1[c], h_2[c],
                             p1[:, None], p2[:, None], pr[:, None], sc.noise_power)
        total = (r1 + r2).sum(axis=1)
        assert np.all(bound[c] >= total * (1.0 - 1e-12))
        score = np.where((r1.min(axis=1) >= t1) & (r2.min(axis=1) >= t2), total, -np.inf)
        assert np.all(bound[c] >= score)


def test_bound_leaves_few_pairs_to_score(monkeypatch):
    # Without targets every pair passes the screen; the bound alone prunes.
    sc = moving_scenario()
    assert not sc.rate_targets.any()
    scored = []
    real = oracle._pair_rates

    def spy(modes, h_r, h_1, h_2, pc, *rest):
        scored.append(pc.size)
        return real(modes, h_r, h_1, h_2, pc, *rest)

    monkeypatch.setattr(oracle, "_pair_rates", spy)
    # the result itself is checked by test_matches_plain_enumeration_across_modes
    oracle.static_placement_oracle(sc, objective="sum", **MOVING_GRID)
    # the top-pr scan's (cell, (p1, p2)) pairs
    levels = grid_axis(0.0, 2 * sc.avg_bs_power, MOVING_GRID["power_step"] * sc.avg_bs_power)
    n_pairs = 9 * sum(a + b <= sc.avg_bs_power * (1 + 1e-12) for a, b in itertools.product(levels, levels))
    assert 0 < sum(scored) <= n_pairs // 20


@pytest.fixture(scope="module")
def default_sum_search_calls():
    """The cells that the 20 m default sum search hands ``policy_states``
    and ``_pair_rates``, one (h_r, h_1, h_2 at slot 1) key per cell and
    call, and the number of ``_pair_rates`` calls."""
    sc = default_scenario()
    classified, scored, pair_calls = [], [], []

    def keys(h_r, h_1, h_2):
        assert h_1.shape == h_2.shape == (h_r.size, sc.slot_count)  # whole horizons
        return list(zip(np.ravel(h_r), h_1[:, 0], h_2[:, 0]))

    real_states, real_rates = oracle.policy_states, oracle._pair_rates

    def states(h_r, h_1, h_2, r_th):
        classified.extend(keys(h_r, h_1, h_2))
        return real_states(h_r, h_1, h_2, r_th)

    def pair_rates(modes, h_r, h_1, h_2, *rest):
        scored.extend(keys(h_r, h_1, h_2))
        pair_calls.append(1)
        return real_rates(modes, h_r, h_1, h_2, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "policy_states", states)
        mp.setattr(oracle, "_pair_rates", pair_rates)
        oracle.static_placement_oracle(sc, xy_step=20.0, power_step=0.2, objective="sum")
    return Counter(classified), Counter(scored), len(pair_calls)


def test_sum_search_classifies_each_slot_once(default_sum_search_calls):
    # Pass 1 classifies every (cell, slot) once; a cell is classified again
    # only to be scored, once per scoring call it is in.
    classified, scored, _ = default_sum_search_calls
    assert len(classified) == 51 * 51
    assert all(n == 1 + scored[cell] for cell, n in classified.items())
    assert sum(scored.values()) < 51 * 51 // 20


def test_sum_search_scores_in_few_calls(default_sum_search_calls):
    # the top-bound pair, then the pairs whose bound reaches its score
    assert default_sum_search_calls[2] <= 3


def test_screen_keeps_a_cell_that_meets_its_target_by_a_hair():
    # A cell that schedules all three modes, with vehicle 1's target 1e-7
    # below the best worst-slot rate any grid triple gives it: only the
    # triples within 1e-7 of that best meet it, and the screen must keep them.
    sc = one_cell(moving_scenario(), 160.0, 130.0)
    h_r, h_1, h_2 = cell_gains(sc, 160.0, 130.0)
    modes = cell_modes(sc, h_r, h_1, h_2)
    assert set(modes) == {1, 2, 3}
    levels = grid_axis(0.0, 2 * sc.avg_bs_power, MOVING_GRID["power_step"] * sc.avg_bs_power)
    best = max(
        exact_rates(modes, h_r, h_1, h_2, p1, p2, sc.avg_relay_power, sc.noise_power)[0].min()
        for p1, p2 in itertools.product(levels, levels) if p1 + p2 <= sc.avg_bs_power * (1 + 1e-12)
    )
    hair = dataclasses.replace(sc, rate_targets=np.array([best - 1e-7, 0.0]))
    assert matches_plain_enumeration(hair, "sum", **MOVING_GRID)


def fig3_gains():
    sc = static_scenario()
    return oracle.initial_gains(sc)


def per_hz_noise(sc):
    return 10 ** (sc.noise_density_dbm_per_hz / 10.0) / 1000.0


def test_highsnr_suite_reports_clean_orderings():
    sc = static_scenario()
    report = oracle.highsnr_proposition_suite(
        [fig3_gains()], [23.0, 25.0, 28.0, 30.0], per_hz_noise(sc)
    )
    assert len(report["records"]) == 4
    assert report["violations"] == []
    for rec in report["records"]:
        assert rec["sum_ordering_ok"] and rec["min_ordering_ok"]
        for key in ("noma_sum", "noma_min", "oma_sum", "oma_min"):
            assert abs(rec["gap"][key]) <= 0.2


def test_highsnr_suite_rejects_equal_gains():
    with pytest.raises(ValueError):
        oracle.highsnr_proposition_suite([(1.0, 2.0, 2.0)], [30.0], 1e-12)


def test_weak_relay_link_brings_schemes_together():
    # relay gain far below both vehicle gains: both schemes are relay-limited
    h_r, h_1, h_2 = 4.0e-9, 6.0e-7, 4.0e-7
    sc = static_scenario()
    report = oracle.highsnr_proposition_suite([(h_r, h_1, h_2)], [30.0], per_hz_noise(sc))
    rec = report["records"][0]
    assert rec["case"] == 3
    assert abs(rec["exact"]["noma_sum"] - rec["exact"]["oma_sum"]) <= 0.1


@pytest.mark.parametrize("objective", ["sum", "min"])
def test_solver_lands_near_coarse_grid_optimum(objective):
    from relayplan.solver import algorithm3_joint, solve_minrate

    sc = dataclasses.replace(
        static_scenario(rate_targets_bpshz=[1.0, 1.0]), uav_max_speed=1.0e4
    )
    _, _, grid_best = oracle.static_placement_oracle(
        sc, xy_step=25.0, power_step=0.1, objective=objective
    )
    res = algorithm3_joint(sc) if objective == "sum" else solve_minrate(sc)
    assert res.converged
    assert res.objective >= 0.9 * grid_best
