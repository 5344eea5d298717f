import itertools

import numpy as np
import pytest

from relayplan import modes
from relayplan.scenario import channel_state, default_scenario, initial_trajectory, scenario_from_dict


def test_state_mode_table():
    assert set(modes.STATE_MODE) == set(range(1, 11))
    assert {s for s, m in modes.STATE_MODE.items() if m == 1} == {1, 3}
    assert {s for s, m in modes.STATE_MODE.items() if m == 2} == {6, 8}
    assert {s for s, m in modes.STATE_MODE.items() if m == 3} == {2, 4, 5, 7, 9, 10}


def test_select_mode_examples():
    assert modes.select_mode(8.0, 4.0, 1.0, 0.1) == (1, 1)
    assert modes.select_mode(3.0, 2.0, 2.0, 0.1) == (2, 3)  # equal links: no SIC gain
    assert modes.select_mode(1.0, 4.0, 2.0, 0.1) == (5, 3)
    assert modes.select_mode(1.0, 2.0, 4.0, 0.1) == (10, 3)
    # relay barely above the weak vehicle: the half-log test decides 3 vs 4
    assert modes.select_mode(3.0, 4.0, 2.0, 0.1) == (3, 1)
    assert modes.select_mode(2.2, 4.0, 2.0, 0.5) == (4, 3)
    assert modes.select_mode(16.0, 1.0, 8.0, 0.1) == (6, 2)
    assert modes.select_mode(4.0, 1.0, 8.0, 0.1) == (8, 2)
    assert modes.select_mode(2.0, 1.9, 8.0, 0.5) == (9, 3)
    with pytest.raises(ValueError):
        modes.select_mode(0.0, 1.0, 1.0, 0.1)


def test_every_ordering_reaches_exactly_one_state():
    gains = {"r": 4.0, "1": 2.0, "2": 1.0}
    seen = set()
    for perm in itertools.permutations(gains.values()):
        hr, h1, h2 = perm
        for r_th in (1e-6, 1e6):
            state, mode = modes.select_mode(hr, h1, h2, r_th)
            assert modes.STATE_MODE[state] == mode
            seen.add(state)
    assert seen == set(range(1, 11))  # all ten states reachable
    # huge threshold forces OMA everywhere
    for perm in itertools.permutations(gains.values()):
        assert modes.select_mode(*perm, 1e6)[1] == 3


def test_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        hr, h1, h2 = rng.uniform(0.1, 10.0, 3)
        base = modes.select_mode(hr, h1, h2, 0.1)
        for c in (1e-6, 3.7, 1e8):
            assert modes.select_mode(c * hr, c * h1, c * h2, 0.1) == base


def test_threshold_monotonicity_noma_to_oma_only():
    rng = np.random.default_rng(6)
    for _ in range(200):
        hr, h1, h2 = rng.uniform(0.1, 10.0, 3)
        lo = modes.select_mode(hr, h1, h2, 0.05)[1]
        hi = modes.select_mode(hr, h1, h2, 0.8)[1]
        if lo == 3:
            assert hi == 3


def test_mode_schedule_matches_scalar_policy():
    sc = default_scenario()
    cs = channel_state(initial_trajectory(sc), sc)
    sched = modes.mode_schedule(cs, sc)
    for i in range(0, sc.slot_count, 7):
        s, m = modes.select_mode(cs.h_r[i], cs.h_1[i], cs.h_2[i], sc.mode_threshold)
        assert sched.states[i] == s and sched.modes[i] == m


def test_default_schedule_fractions_frozen():
    sc = default_scenario()
    sched = modes.mode_schedule(channel_state(initial_trajectory(sc), sc), sc)
    frac = {m: float(np.mean(sched.modes == m)) for m in (1, 2, 3)}
    assert frac[1] == pytest.approx(0.055, abs=1e-12)
    assert frac[2] == pytest.approx(281 / 600, abs=1e-12)
    assert frac[3] == pytest.approx(1 - 0.055 - 281 / 600, abs=1e-12)
    assert sum(frac.values()) == pytest.approx(1.0)


def test_equidistant_hover_is_all_oma():
    import json
    from importlib import resources

    with resources.files("relayplan.data").joinpath("default_paper.json").open() as f:
        raw = json.load(f)
    # symmetric vehicles around x = 500, hovering UAV on the axis of symmetry
    raw["uav_start_m"] = raw["uav_end_m"] = [500.0, 400.0]
    raw["vehicle_initial_m"] = [[300.0, 100.0], [700.0, 100.0]]
    raw["vehicle_velocity_mps"] = [[0.0, 10.0], [0.0, 10.0]]
    sc = scenario_from_dict(raw, slots=40)
    cs = channel_state(initial_trajectory(sc), sc)
    sched = modes.mode_schedule(cs, sc)
    assert np.all(sched.modes == 3)


def test_inconsistent_schedule_rejected():
    with pytest.raises(ValueError):
        modes.ModeSchedule(states=np.array([1, 2]), modes=np.array([1, 1]))
    for state in (0, 11, -1):  # outside the table, including wrap-around indices
        with pytest.raises(ValueError):
            modes.ModeSchedule(states=np.array([state]), modes=np.array([3]))
    with pytest.raises(ValueError):
        modes.ModeSchedule(states=np.array([0]), modes=np.array([0]))
