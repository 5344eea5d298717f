"""Inputs of the three benchmark workloads.

Every input is a pure function of the bundled default scenario and a seed,
so the same seed always gives the same inputs.
"""

import json
import os
from typing import Dict, List

import numpy as np

DEFAULT_SCENARIO = os.path.join("src", "relayplan", "data", "default_paper.json")

# plan-burst: a fixed catalogue of planning requests.  A run's --seed only
# shuffles their order, so every run does the same work and the share of
# requests that fail on the known sum-rate fault is the same whatever the
# seed.  Catalogue seeds 0 and 1 draw no request that hits that fault; 2 is
# the first that does (request 2), so the fault stays in view.
CATALOGUE_SEED = 2
CATALOGUE_SIZE = 6
THRESHOLDS = (0.0, 0.1, 0.3)

# mission-minrate: one long-horizon fairness plan on the default scenario.
MISSION_SLOTS = 150

# oracle-grid: coarse brute-force search over the full 600-slot default.
ORACLE_XY_STEP = 20.0
ORACLE_POWER_STEP = 0.2
ORACLE_OBJECTIVES = ("sum", "min")
ORACLE_SAMPLE = 400  # checker candidates per search


def default_raw(root: str) -> Dict:
    with open(os.path.join(root, DEFAULT_SCENARIO)) as fh:
        return json.load(fh)


def request_scenario(base: Dict, rng: np.random.Generator) -> Dict:
    """One planning request: the default scenario with a new geometry.

    Varies the vehicles' start points and spacing, their northbound speeds
    (10-20 m/s), the hover point (start = end), the NOMA/OMA threshold and
    the slot count (10-50).
    """
    raw = dict(base)
    x1, y1 = rng.uniform(600.0, 800.0), rng.uniform(50.0, 150.0)
    gap, dx = rng.uniform(50.0, 150.0), rng.uniform(-10.0, 10.0)
    raw["vehicle_initial_m"] = [[x1, y1], [x1 + dx, y1 - gap]]
    raw["vehicle_velocity_mps"] = [[0.0, rng.uniform(10.0, 20.0)], [0.0, rng.uniform(10.0, 20.0)]]
    hover = [rng.uniform(150.0, 300.0), rng.uniform(200.0, 400.0)]
    raw["uav_start_m"] = hover
    raw["uav_end_m"] = list(hover)
    raw["mode_threshold_bpshz"] = float(rng.choice(THRESHOLDS))
    raw["slot_count"] = int(rng.integers(10, 51))
    return raw


def catalogue(base: Dict) -> List[Dict]:
    rng = np.random.default_rng(CATALOGUE_SEED)
    return [request_scenario(base, rng) for _ in range(CATALOGUE_SIZE)]


def request_order(seed: int) -> List[int]:
    return np.random.default_rng(seed).permutation(CATALOGUE_SIZE).tolist()


def oracle_axes(raw: Dict):
    """The grid the oracle scans at the workload's steps: (xs, ys, pairs, relay).

    Mirrors ``static_placement_oracle``'s documented grid: positions over the
    flight box, BS power pairs over [0, 2 Pbar] with p1 + p2 <= Pbar, and
    relay powers over [0, Pbar_r].
    """
    x0, x1, y0, y1 = raw["flight_box_m"]

    def axis(lo, hi, step):
        return lo + step * np.arange(int(np.floor((hi - lo) / step + 1e-9)) + 1)

    xs, ys = axis(x0, x1, ORACLE_XY_STEP), axis(y0, y1, ORACLE_XY_STEP)
    p_bs, p_r = raw["avg_bs_power_w"], raw["avg_relay_power_w"]
    bs = axis(0.0, 2.0 * p_bs, ORACLE_POWER_STEP * p_bs)
    g1, g2 = np.meshgrid(bs, bs, indexing="ij")
    keep = g1 + g2 <= p_bs * (1 + 1e-12)
    relay = axis(0.0, 2.0 * p_r, ORACLE_POWER_STEP * p_r)
    return xs, ys, np.column_stack([g1[keep], g2[keep]]), relay[relay <= p_r * (1 + 1e-12)]


def oracle_sample(raw: Dict, seed: int, objective: str):
    """Seeded grid candidates (cells, power triples) for the checker."""
    xs, ys, pairs, relay = oracle_axes(raw)
    rng = np.random.default_rng([seed, ORACLE_OBJECTIVES.index(objective)])
    cells = np.column_stack([rng.choice(xs, ORACLE_SAMPLE), rng.choice(ys, ORACLE_SAMPLE)])
    pick = pairs[rng.integers(0, len(pairs), ORACLE_SAMPLE)]
    return cells, np.column_stack([pick, rng.choice(relay, ORACLE_SAMPLE)])
