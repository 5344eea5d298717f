"""Slow-but-trustworthy references for the iterative machinery.

Exhaustive placement/power search over a discrete grid, central-difference
derivative probes, and exact-versus-asymptotic rate tabulation.  Everything
here trades speed for being simple enough to audit by eye.
"""

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from relayplan.modes import MODE_OF_STATE, policy_states
from relayplan.rates import high_snr_rates, rate_mode1, rate_mode2, rate_mode3
from relayplan.scenario import Scenario, channel_gain, vehicle_paths


# ---- exhaustive placement / power search ----


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(max(count, 0))


def _grid_search(sc, xs, ys, p1_tri, p2_tri, pr_tri, objective, chunk_cells):
    """Scan every (cell, triple) pair; first maximum in index order wins."""
    paths = vehicle_paths(sc)
    bs = sc.bs_position[:2]
    s2 = sc.noise_power
    n_cells = xs.size * ys.size
    n_tri = p1_tri.size
    n_slots = sc.slot_count
    # An OMA rate reads only its own vehicle's power and pr: tabulate each
    # vehicle's once per distinct (p_k, pr), evaluate only the policy's NOMA
    # slots per triple, and score min (all OMA) from per-vehicle slot minima.
    own1, inv1 = np.unique(np.stack([p1_tri, pr_tri], axis=1), axis=0, return_inverse=True)
    own2, inv2 = np.unique(np.stack([p2_tri, pr_tri], axis=1), axis=0, return_inverse=True)
    if chunk_cells is None:
        chunk_cells = max(1, int(8e5 // max(n_tri * n_slots, 1)))
    best_val, best_cell, best_tri = -np.inf, -1, -1
    for lo in range(0, n_cells, chunk_cells):
        idx = np.arange(lo, min(lo + chunk_cells, n_cells))
        pos = np.stack([xs[idx // ys.size], ys[idx % ys.size]], axis=1)
        h_r = channel_gain(pos, bs, sc.uav_height, sc.beta0)
        h_1 = channel_gain(pos[:, None, :], paths[0], sc.uav_height, sc.beta0)
        h_2 = channel_gain(pos[:, None, :], paths[1], sc.uav_height, sc.beta0)
        o1, o2 = (
            rate_mode3(h_r[:, None, None], h_k[:, None, :], own[None, :, :1], own[None, :, 1:], 0.5 * s2)
            for h_k, own in ((h_1, own1), (h_2, own2))
        )
        if objective == "sum":
            r1, r2 = o1[:, inv1], o2[:, inv2]
            modes = MODE_OF_STATE[policy_states(h_r[:, None], h_1, h_2, sc.mode_threshold)]
            for mode, rate_fn in ((1, rate_mode1), (2, rate_mode2)):
                ci, si = np.nonzero(modes == mode)
                r1[ci, :, si], r2[ci, :, si] = rate_fn(
                    h_r[ci, None], h_1[ci, si, None], h_2[ci, si, None], p1_tri, p2_tri, pr_tri, s2
                )
            score = (r1 + r2).sum(axis=2)
            t1, t2 = (float(v) for v in sc.rate_targets)
            if t1 > 0.0 or t2 > 0.0:
                ok = (r1.min(axis=2) >= t1) & (r2.min(axis=2) >= t2)
                score = np.where(ok, score, -np.inf)
        else:
            score = np.minimum(o1.min(axis=2)[:, inv1], o2.min(axis=2)[:, inv2])
        flat = score.ravel()
        j = int(np.argmax(flat))
        if flat[j] > best_val:
            best_val = float(flat[j])
            best_cell = int(idx[j // n_tri])
            best_tri = j % n_tri
    return best_val, best_cell, best_tri


def static_placement_oracle(
    sc: Scenario,
    xy_step: float = 5.0,
    power_step: float = 0.01,
    objective: str = "sum",
    chunk_cells: int = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Best fixed relay position and constant power triple, by brute force.

    The relay sits at one grid cell for the whole horizon while the vehicles
    drive their paths, and (p1, p2, pr) are held constant, so the energy
    budgets collapse to p1 + p2 <= Pbar_s and pr <= Pbar_r.  Power axes span
    [0, 2 Pbar] in steps of power_step * Pbar with infeasible combinations
    dropped.  The sum objective applies the gain-ordering mode policy in
    every slot and keeps only cells whose rates meet the per-slot targets, so
    it searches the feasible set of the problem it benchmarks; the min
    objective scores the orthogonal mode and carries no targets, matching the
    fairness formulation.  Exact ties resolve to the smallest
    (ix, iy, ip1, ip2, ipr) index tuple.

    With constant powers and positive targets, a cell whose schedule uses
    both SIC orders is infeasible: the far vehicle's superposed SINR stays
    below p_far / p_near, so mode-1 slots need p2 > p1 and mode-2 slots need
    p1 > p2.  The sum optimum therefore sits on the edge of the region where
    the policy keeps a single SIC order, and that edge moves with R_th.

    Returns (position(2,), powers(3,), best objective value).
    """
    if objective not in ("sum", "min"):
        raise ValueError(f"objective must be 'sum' or 'min', got {objective!r}")
    if not (0 < xy_step < np.inf and 0 < power_step < np.inf):
        raise ValueError("grid steps must be finite and positive")
    x_min, x_max, y_min, y_max = sc.flight_box
    xs = _axis(x_min, x_max, xy_step)
    ys = _axis(y_min, y_max, xy_step)
    bs_axis = _axis(0.0, 2.0 * sc.avg_bs_power, power_step * sc.avg_bs_power)
    re_axis = _axis(0.0, 2.0 * sc.avg_relay_power, power_step * sc.avg_relay_power)
    pr_feas = re_axis[re_axis <= sc.avg_relay_power * (1 + 1e-12)]
    g1, g2 = np.meshgrid(bs_axis, bs_axis, indexing="ij")
    keep = (g1 + g2) <= sc.avg_bs_power * (1 + 1e-12)
    pair1, pair2 = g1[keep], g2[keep]
    if xs.size == 0 or ys.size == 0 or pair1.size == 0 or pr_feas.size == 0:
        raise ValueError("empty search grid")

    # Every rate is strictly increasing in pr while any vehicle power is
    # positive, so whenever the optimum is positive the full grid's first
    # maximum has pr at its largest feasible value and the (p1, p2) scan
    # settles the remaining tie-breaks.  The degenerate all-zero optimum
    # falls back to the honest full enumeration.
    pr_top = pr_feas[-1]
    val, cell, tri = _grid_search(
        sc, xs, ys, pair1, pair2, np.full(pair1.shape, pr_top), objective, chunk_cells
    )
    if val > 0.0:
        powers = np.array([pair1[tri], pair2[tri], pr_top])
    else:
        t1 = np.repeat(pair1, pr_feas.size)
        t2 = np.repeat(pair2, pr_feas.size)
        tr = np.tile(pr_feas, pair1.size)
        val, cell, tri = _grid_search(sc, xs, ys, t1, t2, tr, objective, chunk_cells)
        powers = np.array([t1[tri], t2[tri], tr[tri]])
    if not np.isfinite(val):
        raise ValueError("no grid point meets the per-slot rate targets")
    position = np.array([xs[cell // ys.size], ys[cell % ys.size]])
    return position, powers, val


# ---- finite differences ----


def finite_diff_gradient(fn: Callable, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    A coordinate whose probe raises or returns a non-finite value is reported
    as nan, so callers can see exactly which directions were undefined instead
    of getting one opaque failure.
    """
    x = np.array(x, dtype=float)
    grad = np.full(x.shape, np.nan)
    flat_g = grad.ravel()
    for i in range(x.size):
        probe = x.copy().ravel()
        base = probe[i]
        probe[i] = base + step
        try:
            fp = float(fn(probe.reshape(x.shape)))
            probe[i] = base - step
            fm = float(fn(probe.reshape(x.shape)))
        except Exception:
            continue
        if np.isfinite(fp) and np.isfinite(fm):
            flat_g[i] = (fp - fm) / (2.0 * step)
    return grad


def finite_diff_hessian(fn: Callable, x, step: float = 1e-4) -> np.ndarray:
    """Symmetric central second differences of a scalar function."""
    x = np.array(x, dtype=float).ravel()
    n = x.size
    f0 = float(fn(x))
    hess = np.empty((n, n))

    def at(*bumps):
        probe = x.copy()
        for i, d in bumps:
            probe[i] += d
        return float(fn(probe))

    for i in range(n):
        hess[i, i] = (at((i, step)) - 2.0 * f0 + at((i, -step))) / step**2
        for j in range(i + 1, n):
            mixed = (
                at((i, step), (j, step))
                - at((i, step), (j, -step))
                - at((i, -step), (j, step))
                + at((i, -step), (j, -step))
            ) / (4.0 * step**2)
            hess[i, j] = hess[j, i] = mixed
    return hess


# ---- exact vs asymptotic rate tabulation ----


def dbm_to_watt(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) / 1000.0


def initial_gains(sc: Scenario) -> Tuple[float, float, float]:
    """(h_r, h_1, h_2) with the relay hovering at its start point, slot-0 vehicles."""
    h_r = channel_gain(sc.uav_start, sc.bs_position[:2], sc.uav_height, sc.beta0)
    h_1 = channel_gain(sc.uav_start, sc.vehicle_initial[0], sc.uav_height, sc.beta0)
    h_2 = channel_gain(sc.uav_start, sc.vehicle_initial[1], sc.uav_height, sc.beta0)
    return float(h_r), float(h_1), float(h_2)


def highsnr_proposition_suite(
    gain_sets: Iterable[Sequence[float]],
    powers_dbm: Sequence[float],
    noise_power: float,
    noma_split: Tuple[float, float] = (0.1, 0.9),
    sum_slack: float = 0.05,
    flag_above_dbm: float = 22.0,
) -> Dict:
    """Tabulate exact and asymptotic rates over geometries and transmit powers.

    Each gain set is (h_r, h_1, h_2) with distinct vehicle gains.  For every
    power level P the BS spends p1 + p2 = P split noma_split between the
    vehicles (equal halves under the orthogonal scheme) and the relay spends
    pr = P.  Records carry exact rates, their closed-form high-SNR
    counterparts, absolute gaps, and the link-ordering case; the expected
    orderings (superposed sum-rate above orthogonal minus sum_slack,
    orthogonal min-rate above superposed) are checked per record and any
    failure above flag_above_dbm lands in the violations list.
    """
    share_near, share_far = noma_split
    if not 0 < share_near < share_far:
        raise ValueError("noma_split must be increasing positive shares")
    records: List[Dict] = []
    violations: List[Dict] = []
    for g_idx, gains in enumerate(gain_sets):
        h_r, h_1, h_2 = (float(g) for g in gains)
        if min(h_r, h_1, h_2) <= 0:
            raise ValueError(f"gain set {g_idx}: gains must be positive")
        if h_1 == h_2:
            raise ValueError(f"gain set {g_idx}: vehicle gains must differ")
        swap = h_2 > h_1
        h_near, h_far = (h_2, h_1) if swap else (h_1, h_2)
        if h_r > h_near:
            case = 1
        elif h_r > h_far:
            case = 2
        else:
            case = 3
        for p_dbm in powers_dbm:
            p_w = dbm_to_watt(float(p_dbm))
            r_near, r_far = rate_mode1(
                h_r, h_near, h_far, share_near * p_w, share_far * p_w, p_w, noise_power
            )
            so2 = 0.5 * noise_power
            o_near = rate_mode3(h_r, h_near, 0.5 * p_w, p_w, so2)
            o_far = rate_mode3(h_r, h_far, 0.5 * p_w, p_w, so2)
            rho = p_w / noise_power
            hr_i, hn_i, hf_i = rho * h_r, rho * h_near, rho * h_far
            exact = {
                "noma_sum": float(r_near + r_far),
                "noma_min": float(min(r_near, r_far)),
                "oma_sum": float(o_near + o_far),
                "oma_min": float(min(o_near, o_far)),
            }
            approx = {
                "noma_sum": float(high_snr_rates("NOMA", "sum", hr_i, hn_i, hf_i, share_near, share_far)),
                "noma_min": float(high_snr_rates("NOMA", "min", hr_i, hn_i, hf_i, share_near, share_far)),
                "oma_sum": float(high_snr_rates("OMA", "sum", hr_i, hn_i, hf_i, 0.5, 0.5)),
                "oma_min": float(high_snr_rates("OMA", "min", hr_i, hn_i, hf_i, 0.5, 0.5)),
            }
            gap = {key: abs(exact[key] - approx[key]) for key in exact}
            sum_ok = exact["noma_sum"] >= exact["oma_sum"] - sum_slack
            min_ok = exact["oma_min"] >= exact["noma_min"] - 1e-12
            record = {
                "geometry": g_idx,
                "gains": (h_r, h_1, h_2),
                "case": case,
                "swapped": swap,
                "power_dbm": float(p_dbm),
                "exact": exact,
                "approx": approx,
                "gap": gap,
                "sum_ordering_ok": bool(sum_ok),
                "min_ordering_ok": bool(min_ok),
            }
            records.append(record)
            if p_dbm > flag_above_dbm and not (sum_ok and min_ok):
                violations.append(
                    {
                        "geometry": g_idx,
                        "power_dbm": float(p_dbm),
                        "sum_ordering_ok": bool(sum_ok),
                        "min_ordering_ok": bool(min_ok),
                    }
                )
    return {
        "noma_split": (share_near, share_far),
        "power_dbm": [float(p) for p in powers_dbm],
        "records": records,
        "violations": violations,
    }
