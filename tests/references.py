"""References that only the tests use: the scalar mode selector that
``modes.policy_states`` is checked against, and a readable constraint
report of a candidate plan."""

from typing import List, Tuple

import numpy as np

from relayplan.modes import STATE_MODE
from relayplan.scenario import Scenario, validate_trajectory
from relayplan.solver import FEAS_TOL, PowerAllocation


def select_mode(h_r: float, h_1: float, h_2: float, r_th: float) -> Tuple[int, int]:
    """One slot's (state, mode) from the three gains and the threshold.

    The scalar reference that ``policy_states`` is tested against.
    """
    if h_r <= 0 or h_1 <= 0 or h_2 <= 0:
        raise ValueError("gains must be positive")
    if h_1 >= h_2:
        if h_r > h_1:
            state = 1 if 0.5 * np.log2(h_1 / h_2) > r_th else 2
        elif h_r > h_2:
            state = 3 if 0.5 * np.log2(h_r / h_2) > r_th else 4
        else:
            state = 5
    else:
        if h_r > h_2:
            state = 6 if 0.5 * np.log2(h_2 / h_1) > r_th else 7
        elif h_r > h_1:
            state = 8 if 0.5 * np.log2(h_r / h_1) > r_th else 9
        else:
            state = 10
    return state, STATE_MODE[state]


def feasibility_report(sc: Scenario, traj, powers: PowerAllocation,
                       modes=None, tol=FEAS_TOL) -> List[str]:
    """Human-readable constraint violations of a candidate plan."""
    problems = [
        f"trajectory {v['kind']}" + (f" at slot {v['slot']}" if "slot" in v else "")
        for v in validate_trajectory(traj, sc)
    ]
    n = sc.slot_count
    if min(powers.p1.min(), powers.p2.min(), powers.pr.min()) < -tol:
        problems.append("negative power")
    if powers.bs_sum() > sc.bs_energy * (1 + tol):
        problems.append("source energy budget exceeded")
    if powers.relay_sum() > sc.relay_energy * (1 + tol):
        problems.append("relay energy budget exceeded")
    if modes is not None:
        modes = np.asarray(modes)
        scale = tol * sc.avg_bs_power
        for m, near, far in ((1, powers.p1, powers.p2), (2, powers.p2, powers.p1)):
            sel = modes == m
            if np.any(near[sel] > far[sel] + scale):
                problems.append(f"decoding order violated in mode {m}")
    return problems
