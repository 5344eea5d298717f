"""Tests of the reference checker: agreement with relayplan, and rejection of
corrupted plans.  Run from the repository root:

    python3 -m pytest relaybench/test_refcheck.py
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refcheck  # noqa: E402
from relayplan import default_scenario  # noqa: E402
from relayplan.modes import mode_schedule  # noqa: E402
from relayplan.oracle import static_placement_oracle  # noqa: E402
from relayplan.rates import exact_rates  # noqa: E402
from relayplan.scenario import channel_state  # noqa: E402
from relayplan.solver import algorithm3_joint, solve_minrate  # noqa: E402

DEFAULT = os.path.join(os.path.dirname(HERE), "src", "relayplan", "data", "default_paper.json")
SLOTS = 12


def default_raw():
    with open(DEFAULT) as fh:
        return json.load(fh)


def plan_of(res):
    return {
        "x": res.trajectory[:, 0].copy(), "y": res.trajectory[:, 1].copy(),
        "p1": res.powers.p1.copy(), "p2": res.powers.p2.copy(), "pr": res.powers.pr.copy(),
        "mode": res.schedule.modes.copy(),
        "R1": np.array([s.r1 for s in res.slots]), "R2": np.array([s.r2 for s in res.slots]),
    }


@pytest.fixture(scope="module")
def model():
    return refcheck.Model(default_raw(), slots=SLOTS)


@pytest.fixture(scope="module")
def sum_result():
    return algorithm3_joint(default_scenario(SLOTS))


@pytest.fixture(scope="module")
def min_result():
    return solve_minrate(default_scenario(SLOTS))


def test_rates_agree_with_relayplan_on_random_inputs():
    sc = default_scenario()
    m = refcheck.Model(default_raw())
    assert m.sigma2 == pytest.approx(sc.noise_power, rel=1e-12)
    assert m.beta0 == pytest.approx(sc.beta0, rel=1e-12)
    rng = np.random.default_rng(0)
    n = 20000
    h_r, h_1, h_2 = (m.beta0 / rng.uniform(1e4, 2e6, n) for _ in range(3))
    p1, p2 = rng.uniform(0.0, 1.0, (2, n))
    pr = rng.uniform(1e-3, 1.0, n)
    modes = rng.integers(1, 4, n)
    got = refcheck.rates(modes, h_r, h_1, h_2, p1, p2, pr, m.sigma2)
    want = exact_rates(modes, h_r, h_1, h_2, p1, p2, pr, sc.noise_power)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12)


def test_gains_and_mode_rule_agree_with_relayplan():
    rng = np.random.default_rng(1)
    for r_th in (0.0, 0.1, 0.3):
        raw = dict(default_raw(), mode_threshold_bpshz=r_th)
        m = refcheck.Model(raw, slots=200)
        sc = dataclasses.replace(default_scenario(200), mode_threshold=r_th)
        traj = rng.uniform(0.0, 1000.0, (200, 2))
        cs = channel_state(traj, sc)
        h = m.gains(traj)
        for mine, theirs in zip(h, (cs.h_r, cs.h_1, cs.h_2)):
            np.testing.assert_allclose(mine, theirs, rtol=1e-12)
        np.testing.assert_array_equal(refcheck.policy_modes(*h, r_th), mode_schedule(cs, sc).modes)


def test_genuine_plans_pass(model, sum_result, min_result):
    assert refcheck.check_sum_plan(model, plan_of(sum_result), sum_result.objective) == []
    assert refcheck.check_min_plan(model, plan_of(min_result), min_result.objective) == []


def _expect(problems, fragment):
    assert any(fragment in p for p in problems), problems


def test_rejects_step_beyond_reach(model, sum_result):
    plan = plan_of(sum_result)
    plan["x"][SLOTS // 2] += 1.5 * model.v_max * model.tau
    _expect(refcheck.check_sum_plan(model, plan, sum_result.objective), "> V*tau")


def test_rejects_overspent_budget(model, sum_result, min_result):
    plan = plan_of(sum_result)
    plan["p1"] = plan["p1"] * 1.01
    plan["p2"] = plan["p2"] * 1.01
    _expect(refcheck.check_sum_plan(model, plan, sum_result.objective), "BS energy")
    plan = plan_of(min_result)
    plan["pr"] = plan["pr"] * 1.01
    _expect(refcheck.check_min_plan(model, plan, min_result.objective), "relay energy")


def test_rejects_altered_rates_modes_and_objective(model, sum_result, min_result):
    plan = plan_of(sum_result)
    plan["R1"][0] *= 1 + 1e-7
    _expect(refcheck.check_sum_plan(model, plan, sum_result.objective), "R1/R2 differ")
    plan = plan_of(min_result)
    plan["R1"][-1] *= 1 - 1e-7
    _expect(refcheck.check_min_plan(model, plan, min_result.objective), "R1/R2 differ")
    _expect(refcheck.check_sum_plan(model, plan_of(sum_result), sum_result.objective + 1e-6), "objective")
    plan = plan_of(sum_result)
    plan["mode"][0] = 3 if plan["mode"][0] != 3 else 1
    _expect(refcheck.check_sum_plan(model, plan, sum_result.objective), "mode differs")


def test_rejects_missed_target_and_decoding_order(model, sum_result):
    plan = plan_of(sum_result)
    superposed = np.nonzero(plan["mode"] != 3)[0]
    assert len(superposed), "the default 12-slot plan has superposition slots"
    i = superposed[0]
    plan["p1"][i], plan["p2"][i] = plan["p2"][i], plan["p1"][i]
    problems = refcheck.check_sum_plan(model, plan, sum_result.objective)
    _expect(problems, "decoding order")
    _expect(problems, "target")


def test_static_result_checks():
    raw = default_raw()
    m = refcheck.Model(raw)
    step = 50.0
    pos, powers, value = static_placement_oracle(default_scenario(), xy_step=step, power_step=0.25, objective="sum")
    rng = np.random.default_rng(2)
    cells = rng.choice(np.arange(0.0, 1001.0, step), (200, 2))
    triples = np.column_stack([rng.choice([0.0, 0.125, 0.25], (200, 2)), np.full(200, 0.5)])
    assert refcheck.check_static_result(m, "sum", pos, powers, value, cells, triples, step) == []
    _expect(refcheck.check_static_result(m, "sum", pos, powers, value * 0.99, cells, triples, step), "differs")
    # a lowered claim is beaten by the true optimum, placed in the sample
    _expect(refcheck.check_static_result(m, "sum", pos, powers, value * 0.99, [pos], [powers], step), "beats")
    shifted = pos + np.array([step, 0.0])
    _expect(refcheck.check_static_result(m, "sum", shifted, powers, value, cells, triples, step), "edge")
