"""Acceptance checks for the headline behaviors, one printed pass/fail line each.

Heavy solves and grid searches are shared through module-scoped fixtures; the
brute-force deployment search and the static-reduction comparison each take
about a minute, everything else runs in seconds.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

import relayplan
from relayplan import oracle, sca
from relayplan.cli import main as cli_main
from relayplan.modes import MODE_OF_STATE, mode_schedule, policy_states
from relayplan.scenario import (
    channel_state,
    default_scenario,
    scenario_from_dict,
    validate_trajectory,
    vehicle_paths,
)
from relayplan.solver import algorithm3_joint, solve_minrate

DEFAULT_JSON = str(Path(relayplan.__file__).parent / "data" / "default_paper.json")
GOLDEN_CSV = Path(__file__).parent / "data" / "sumrate_n50_golden.csv"
MINRATE_GOLDEN_CSV = Path(__file__).parent / "data" / "minrate_n50_golden.csv"
NOISE_PER_HZ = 10.0 ** (-174.0 / 10.0) / 1000.0
MODE_K = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
# trajectory-bound geometry for checks made directly in psi, where it is unused
PSI_GEOMETRY = dict(bs=(0.0, 0.0), s=1.0, hh=0.0, scale=1.0)

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
    "rate_targets_bpshz": [1.0, 1.0],
    "mode_threshold_bpshz": 0.1,
}


def report(label, ok):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    return ok


def random_geometries(count=1000, seed=47):
    """Log-uniform gain triples; relay-weakest samples kept in the regime the
    ordering claims cover (relay link clearly the bottleneck)."""
    rng = np.random.default_rng(seed)
    geoms = []
    for _ in range(count):
        h1, h2 = 10.0 ** rng.uniform(-8, -5, 2)
        while abs(h1 - h2) <= 1e-3 * max(h1, h2):
            h2 = 10.0 ** rng.uniform(-8, -5)
        hr = 10.0 ** rng.uniform(-9, -4)
        weak = min(h1, h2)
        if 0.14 * weak < hr < weak:
            hr *= 0.14
        geoms.append((hr, h1, h2))
    return geoms


@pytest.fixture(scope="module")
def static_sc():
    return dataclasses.replace(scenario_from_dict(STATIC_RAW), uav_max_speed=1e4)


@pytest.fixture(scope="module")
def n50():
    return default_scenario().with_slots(50)


@pytest.fixture(scope="module")
def joint50(n50):
    started = time.perf_counter()
    res = algorithm3_joint(n50)
    return res, time.perf_counter() - started


@pytest.fixture(scope="module")
def minrate50(n50):
    started = time.perf_counter()
    res = solve_minrate(n50)
    return res, time.perf_counter() - started


def test_high_snr_gap_bounded(static_sc):
    rep = oracle.highsnr_proposition_suite(
        [oracle.initial_gains(static_sc)], [23.0, 25.0, 28.0, 30.0], NOISE_PER_HZ
    )
    worst = max(g for rec in rep["records"] for g in rec["gap"].values())
    ok = worst <= 0.2 and not rep["violations"]
    assert report(f"closed-form high-SNR rates within 0.2 bps/Hz (worst {worst:.3f})", ok)


def test_superposed_sum_rate_dominates():
    rep = oracle.highsnr_proposition_suite(random_geometries(), [30.0], NOISE_PER_HZ)
    recs = rep["records"]
    ordering = all(r["sum_ordering_ok"] for r in recs)
    case3 = [abs(r["exact"]["noma_sum"] - r["exact"]["oma_sum"])
             for r in recs if r["case"] == 3]
    tight = max(case3) <= 0.1
    ok = ordering and tight
    assert report(
        f"superposed sum-rate dominates over {len(recs)} geometries "
        f"(relay-limited gap max {max(case3):.3f} over {len(case3)})", ok)


def test_orthogonal_min_rate_dominates():
    geoms = random_geometries()
    ok = True
    for ratio in (2.0, 5.0, 10.0):
        split = (1.0 / (1.0 + ratio), ratio / (1.0 + ratio))
        rep = oracle.highsnr_proposition_suite(geoms, [30.0], NOISE_PER_HZ, noma_split=split)
        ok = ok and all(r["min_ordering_ok"] for r in rep["records"])
    assert report("orthogonal min-rate dominates at splits 2/5/10", ok)


def test_surrogate_coefficients_match_finite_differences():
    """Bound rows against finite differences, 500 slots per (mode, vehicle):
    the trajectory row's psi gradient at its anchor against the convexified
    rate's (tangency), the power row's plane slopes against the subtracted
    log term's."""
    rng = np.random.default_rng(53)
    worst = 0.0
    ones = np.ones(500, int)
    for mode, k in MODE_K:
        vehicle_k = np.arange(500) + (k - 1) * 500  # vehicle k's rows of the stacked builds
        p1, p2, pr = rng.uniform(0.05, 1.0, (3, 500))
        u, v = rng.uniform(1e-3, 0.5, (2, 500))
        tb = sca.trajectory_lb_build(mode * ones, p1, p2, pr, u, v, v,
                                     np.zeros((2, 500, 2)), **PSI_GEOMETRY)
        f = lambda a, b: sca.convexified_rate(mode, k, p1, p2, pr, a, b)
        hu, hv = 1e-6 * u, 1e-6 * v
        num_r = (f(u + hu, v) - f(u - hu, v)) / (2 * hu)
        num_k = (f(u, v + hv) - f(u, v - hv)) / (2 * hv)
        slope = tb.cm[vehicle_k] / (sca.LN2 * tb.argument(np.tile(u, 2), np.tile(v, 2))[vehicle_k])
        for coef, num in ((slope * tb.dr[vehicle_k], num_r), (slope * tb.dk[vehicle_k], num_k)):
            worst = max(worst, float(np.max(np.abs(coef - num) / np.maximum(np.abs(num), 1e-12))))

        g_r, g_1, g_2 = rng.uniform(1e2, 1e6, (3, 500))
        q1, q2, qr = rng.uniform(0.05, 1.0, (3, 500))
        pb = sca.power_lb_build(mode * ones, g_r, g_1, g_2, q1, q2, qr, np.ones(3))
        # vehicle k's role and its (own, other) powers
        g_k, qa, qb = (g_1, q1, q2) if k == 1 else (g_2, q2, q1)
        sub_arg = sca._dc_split(mode == 3, mode == k, g_r, g_k)[1]  # the subtracted argument
        f = lambda a, b, c: sca._log2_and_slopes(sub_arg, a, b, c)[0]
        h = 1e-6
        for coef, num in (
            (pb.t_a[vehicle_k], (f(qa + h, qb, qr) - f(qa - h, qb, qr)) / (2 * h)),
            (pb.t_b[vehicle_k], (f(qa, qb + h, qr) - f(qa, qb - h, qr)) / (2 * h)),
            (pb.t_r[vehicle_k], (f(qa, qb, qr + h) - f(qa, qb, qr - h)) / (2 * h)),
        ):
            denom = np.maximum(np.abs(num), 1e-4)  # guard the zero coefficients
            worst = max(worst, float(np.max(np.abs(coef - num) / denom)))
    coeff_ok = worst <= 1e-5

    eig_min = np.inf
    for _ in range(500):
        a, b, c = rng.uniform(0.1, 10.0, 3)
        d = a * b / c
        x, y = rng.uniform(0.1, 5.0, 2)
        assert sca.convexity_certificate(a, b, c, d, (x, y))
        f2 = lambda s, t: 1.0 / (a * s + b * t + c * s * t + d)
        h = 1e-4
        fxx = (f2(x + h, y) - 2 * f2(x, y) + f2(x - h, y)) / h**2
        fyy = (f2(x, y + h) - 2 * f2(x, y) + f2(x, y - h)) / h**2
        fxy = (f2(x + h, y + h) - f2(x + h, y - h) - f2(x - h, y + h)
               + f2(x - h, y - h)) / (4 * h**2)
        eig_min = min(eig_min, float(np.linalg.eigvalsh(
            np.array([[fxx, fxy], [fxy, fyy]])).min()))
    hess_ok = eig_min >= -1e-6
    assert report(
        f"surrogate coefficients match finite differences "
        f"(worst rel {worst:.2e}, certified Hessian eig min {eig_min:.2e})",
        coeff_ok and hess_ok)


def own_order(p):
    """Both vehicles' power-row variables at slot powers ``p``, one (p1, p2,
    pr) row per slot: vehicle 2's rows read (p2, p1, pr), as in the solver."""
    return np.concatenate([p, p[:, [1, 0, 2]]])


def test_bounds_anchor_and_minorize():
    """The rows the barrier maximizes, one slot per (mode, vehicle), evaluated
    at 10,000 trial points, each on its own slot of a 10,000-slot build with
    the anchor tiled: the trajectory rows in psi through ``argument``, the
    power rows through ``local``."""
    rng = np.random.default_rng(59)
    anchor_err = 0.0
    overshoot = -np.inf
    n = 10_000
    for mode, k in MODE_K:
        vehicle_k = slice((k - 1) * n, k * n)  # vehicle k's rows of the stacked builds
        p = rng.uniform(0.05, 1.0, (3, 1))
        u0, v0 = rng.uniform(5e-3, 0.2, 2)
        tb = sca.trajectory_lb_build(np.full(n, mode), *np.tile(p, n), np.full(n, u0), np.full(n, v0),
                                     np.full(n, v0), np.zeros((2, n, 2)), **PSI_GEOMETRY)
        anchor = tb.cm[(k - 1) * n] * np.log2(tb.argument(u0, v0)[(k - 1) * n])
        target0 = sca.convexified_rate(mode, k, *p[:, 0], u0, v0)
        anchor_err = max(anchor_err, abs(anchor - target0) / max(abs(target0), 1e-12))
        trials = rng.uniform(0.2, 5.0, size=(n, 2))
        u, v = u0 * trials[:, 0], v0 * trials[:, 1]
        arg = tb.argument(np.tile(u, 2), np.tile(v, 2))[vehicle_k]
        keep = arg > 0.0
        bound = tb.cm[vehicle_k][keep] * np.log2(arg[keep])
        target = sca.convexified_rate(mode, k, *p[:, 0], u[keep], v[keep])
        overshoot = max(overshoot, float((bound - target).max()))

        g = rng.uniform(1e2, 1e6, (3, 1))
        q = rng.uniform(0.05, 1.0, (3, 1))
        pb = sca.power_lb_build(np.full(n, mode), *np.tile(g, n), *np.tile(q, n), np.ones(3))
        # vehicle 2's rows read (p2, p1, pr): (own, other, relay) power
        panchor = pb.local(own_order(np.tile(q.T, (n, 1))), 0)[0][(k - 1) * n]
        ptarget0 = sca.dc_rate_vehicle(mode, k, *g[:, 0], *q[:, 0])
        anchor_err = max(anchor_err, abs(panchor - ptarget0) / max(abs(ptarget0), 1e-12))
        ptrials = rng.uniform(1e-3, 2.0, size=(n, 3))
        pbound = pb.local(own_order(ptrials), 0)[0][vehicle_k]
        ptarget = sca.dc_rate_vehicle(mode, k, *g[:, 0], *ptrials.T)
        overshoot = max(overshoot, float((pbound - ptarget).max()))
    ok = anchor_err <= 1e-12 and overshoot <= 1e-9
    assert report(
        f"bounds anchor exactly and never exceed their targets "
        f"(anchor rel {anchor_err:.1e}, overshoot {overshoot:.1e})", ok)


def test_drivers_converge_quickly(joint50, minrate50):
    ok = True
    detail = []
    for name, (res, wall) in (("sum", joint50), ("min", minrate50)):
        bound = np.array([h["bound_power"] for h in res.history])
        monotone = bool(np.all(np.diff(bound) >= -1e-9))
        ok = ok and res.converged and len(res.history) <= 30 and monotone and wall < 60.0
        detail.append(f"{name}: {len(res.history)} iters {wall:.1f}s monotone {monotone}")
    assert report("drivers converge within 30 iterations, monotone bounds ("
                  + "; ".join(detail) + ")", ok)


def test_solver_matches_bruteforce_static(static_sc):
    sum_res = algorithm3_joint(static_sc)
    min_res = solve_minrate(static_sc)
    _, _, best_sum = oracle.static_placement_oracle(
        static_sc, xy_step=5.0, power_step=0.01, objective="sum")
    _, _, best_min = oracle.static_placement_oracle(
        static_sc, xy_step=5.0, power_step=0.01, objective="min")
    gap_sum = abs(sum_res.objective - best_sum) / best_sum
    gap_min = abs(min_res.objective - best_min) / best_min
    ok = gap_sum <= 0.10 and gap_min <= 0.10
    assert report(
        f"solver within 10% of brute force on the static reduction "
        f"(sum {100 * gap_sum:.2f}%, min {100 * gap_min:.2f}%)", ok)


def policy_edge_x(sc, y):
    """x at which slot 1's NOMA gain via the relay equals the threshold.

    Solves 1/2 log2(h_r / h_2) = R_th for a relay at q = (x, y), with vehicle
    2 at its slot-1 position v and the BS at w:
    |q - v|^2 + H^2 = k (|q - w|^2 + H^2), k = 2^(2 R_th), i.e.
    a x^2 - 2 b x + c = 0.  The root between the BS and the vehicle is taken
    in the cancellation-free form c / (b + sqrt(b^2 - a c)), which reduces to
    the linear solution c / (2 b) at R_th = 0.
    """
    k = 2.0 ** (2.0 * sc.mode_threshold)
    bx, by = sc.bs_position[:2]
    vx, vy = vehicle_paths(sc)[1, 0]
    hh = sc.uav_height**2
    a = 1.0 - k
    b = vx - k * bx
    c = vx**2 + (y - vy) ** 2 + hh - k * (bx**2 + (y - by) ** 2 + hh)
    return c / (b + np.sqrt(b * b - a * c))


def test_static_deployment_position():
    """The brute-force static optimum sits on slot 1's NOMA/OMA policy edge.

    The oracle holds (p1, p2, pr) constant and requires R_k >= 1 bps/Hz in
    every slot.  Under superposition the far vehicle's SINR stays below
    p_far / p_near, so a mode-1 slot (SIC at vehicle 1) needs p2 > p1 and a
    mode-2 slot needs p1 > p2: no constant pair serves both.  The later slots
    of the default geometry are mode 2, so a cell is feasible only if no slot
    is mode 1, and since the sum-rate falls as the relay moves east the
    optimum is the westmost grid column without a mode-1 slot.  The slot that
    decides is slot 1, where h_1 >= h_r > h_2 and the policy picks state 3
    (mode 1) over state 4 (orthogonal) iff 1/2 log2(h_r / h_2) > R_th, giving
    the edge (702 - x)^2 + (y - 1.5)^2 + 100^2 = 2^(2 R_th) (x^2 + y^2 + 100^2).

    At the scenario's R_th = 0.1 and the returned y = 185 the edge is
    x* = 334.1 m, so the optimum is the 335 m column.  With no threshold
    (R_th = 0) the edge moves to 350.6 m and the oracle returns (355, 190);
    the former fixed reference of 354 +/- 10 m matched that threshold-free
    policy, not the scenario under test, so the expected x is now derived
    from the scenario's own fields.
    """
    sc = default_scenario()
    xy_step = 5.0
    pos, powers, _ = oracle.static_placement_oracle(
        sc, xy_step=xy_step, power_step=0.1, objective="sum")
    x_star = float(policy_edge_x(sc, float(pos[1])))
    cs = channel_state(np.tile(pos, (sc.slot_count, 1)), sc)
    modes = MODE_OF_STATE[policy_states(cs.h_r, cs.h_1, cs.h_2, sc.mode_threshold)]
    assert not np.any(modes == 1) and np.any(modes == 2), (
        f"expected SIC at vehicle 2 only, mode counts {np.bincount(modes, minlength=4)[1:]}")
    assert powers[0] > powers[1], f"expected p1 > p2 for mode-2 slots, got {powers}"
    ok = 0.0 <= float(pos[0]) - x_star < xy_step
    assert report(
        f"brute-force deployment x on the NOMA/OMA policy edge "
        f"(edge {x_star:.1f} m, got {pos[0]:.0f})", ok)


def test_minrate_is_fair_per_slot(minrate50):
    res, _ = minrate50
    r1, r2 = res.slots.r1, res.slots.r2
    spread = float((np.abs(r1 - r2) / np.maximum(r1, r2)).max())
    ok = res.converged and spread <= 0.05
    assert report(f"min-rate solution is per-slot fair (worst spread {100 * spread:.3f}%)", ok)


def test_orthogonal_share_monotone_in_threshold(n50, joint50):
    res, _ = joint50
    cs = channel_state(res.trajectory, n50)
    shares = []
    for r_th in (0.0, 0.1, 0.3, 1.0):
        sched = mode_schedule(cs, dataclasses.replace(n50, mode_threshold=r_th))
        shares.append(float(np.mean(sched.modes == 3)))
    ok = bool(np.all(np.diff(shares) >= 0.0))
    assert report(
        "orthogonal share non-decreasing in the selection threshold "
        f"({', '.join(f'{s:.2f}' for s in shares)})", ok)


def test_results_feasible_and_reproducible(n50, joint50, minrate50, tmp_path):
    ok = True
    for res, _ in (joint50, minrate50):
        ok = ok and not validate_trajectory(res.trajectory, n50)
        ok = ok and float(np.sum(res.powers.p1 + res.powers.p2)) <= n50.bs_energy + 1e-6
        ok = ok and float(np.sum(res.powers.pr)) <= n50.relay_energy + 1e-6
    res, _ = joint50
    r1, r2 = res.slots.r1, res.slots.r2
    t1, t2 = (float(v) for v in n50.rate_targets)
    ok = ok and bool(r1.min() >= t1 - 1e-9) and bool(r2.min() >= t2 - 1e-9)

    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["solve-sumrate", DEFAULT_JSON, "--slots", "50",
                         "--out-dir", str(out)]) == 0
    assert cli_main(["solve-minrate", DEFAULT_JSON, "--slots", "50",
                     "--out-dir", str(tmp_path / "m")]) == 0
    first = (tmp_path / "a" / "sumrate_slots.csv").read_bytes()
    stable = first == (tmp_path / "b" / "sumrate_slots.csv").read_bytes()

    def parse(text):
        rows = [r.split(",") for r in text.strip().splitlines()[1:]]
        return np.array([[float(c) for c in row] for row in rows])

    drift = True
    for fresh, golden in ((first.decode(), GOLDEN_CSV),
                          ((tmp_path / "m" / "minrate_slots.csv").read_text(), MINRATE_GOLDEN_CSV)):
        fresh, golden = parse(fresh), parse(golden.read_text())
        drift = drift and fresh.shape == golden.shape and bool(
            np.allclose(fresh, golden, rtol=1e-9, atol=1e-9))
    ok = ok and stable and drift
    assert report(
        f"results feasible; repeated runs byte-stable ({stable}) and on the "
        f"recorded values ({drift})", ok)
