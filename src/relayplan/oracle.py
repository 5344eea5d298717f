"""Slow-but-trustworthy references for the iterative machinery.

Exhaustive placement/power search over a discrete grid and
exact-versus-asymptotic rate tabulation.  The search runs in two passes.
The first builds every cell's per-slot gains, and under the sum objective
classifies every (cell, slot) once, reducing them to per-(cell, mode) slot
counts, gain sums and smallest gains.  The second reads only those
statistics to rule candidates out: a mean-gain (Jensen) bound on the sum
objective, a per-mode weakest-link screen under rate targets and a
smallest-gain bound on the min objective.  Each skips only candidates that
provably cannot win, and its proof sits at the code that relies on it.
Every candidate left is scored per slot by one ``rates.exact_rates`` call,
the planner's own rate kernel, so the result is a plain scan's bit for bit;
auditing the search means checking those proofs and that one call.
"""

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from relayplan.modes import MODE_OF_STATE, policy_states
from relayplan.rates import exact_rates, high_snr_rates, oma_rate, rates_for_mode
from relayplan.scenario import Scenario, channel_gain, vehicle_paths

# Rate evaluations (cells x triples x slots) per chunk of the grid search.
# Pass 2 has no slot axis, but it holds several (cells x triples) float
# temporaries at once: about eight in the sum's bound and screen, two in the
# min's smallest-gain table.  Its chunks take that fraction of the pairs.
CHUNK_EVALS = 8e5


# ---- exhaustive placement / power search ----


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(max(count, 0))


def _mode_stats(modes, h_1, h_2, smallest):
    """(5, cells, 3) statistics of each cell's slots per mode, column m - 1
    for mode m: the slot count, the sums of h_1 and of h_2 and, with
    ``smallest``, their minima (+inf where the mode has no slot; 0 without
    ``smallest``)."""
    size = 3 * len(modes)
    key = (modes + (3 * np.arange(len(modes)) - 1)[:, None]).ravel()
    stats = np.zeros((5, size))
    stats[0] = np.bincount(key, minlength=size)
    for k, h_k in enumerate((h_1.ravel(), h_2.ravel())):
        stats[1 + k] = np.bincount(key, h_k, size)
        if smallest:
            stats[3 + k] = np.inf
            np.minimum.at(stats[3 + k], key, h_k)
    return stats.reshape(5, -1, 3)


def _mode_rates(count, g_1, g_2, h_r, p1, p2, pr, oma, s2):
    """Per mode present: (cells ci, their slot counts n, R1, R2, columns).

    ``count``, ``g_1`` and ``g_2`` are (cells, 3), column m - 1 for mode m:
    each cell's slot count in the mode and the one gain per vehicle its
    rates there are taken at.  Column ``cols[k][t]`` of vehicle k's rates
    is triple t's rate.  R1 never reads g_2 and R2 never reads g_1, so each
    vehicle's rate is its own at the gain given.  NOMA rates have one column
    per triple.  OMA rates have one per distinct (p_k, pr) of ``oma``,
    which also holds each triple's row of that table.
    """
    for mode in (1, 2, 3):
        ci = np.flatnonzero(count[:, mode - 1])
        if not ci.size:
            continue
        w1, w2 = (g[ci, mode - 1, None] for g in (g_1, g_2))
        if mode == 3:
            r1, r2 = (oma_rate(h_r[ci, None], w, own[:, 0], own[:, 1], s2) for w, (own, _) in zip((w1, w2), oma))
            cols = tuple(inv for _, inv in oma)
        else:
            r1, r2 = rates_for_mode(mode, h_r[ci, None], w1, w2, p1, p2, pr, s2)
            cols = (slice(None), slice(None))
        yield ci, count[ci, mode - 1, None], r1, r2, cols


def _weakest_link_ok(count, low_1, low_2, h_r, p1, p2, pr, oma, s2, t1, t2):
    """(cells, triples) mask of the candidates that may meet both rate targets.

    Each rate rises with its own gain, so the rate pair of a mode at its
    smallest h_1 and smallest h_2 gives each vehicle its rate in a real slot
    of that mode: a miss there is a miss in the exact per-slot test, up to
    the rounding that the 1e-9 slack absorbs.
    """
    ok = np.ones((h_r.size, p1.size), dtype=bool)
    for ci, _, r1, r2, (c1, c2) in _mode_rates(count, low_1, low_2, h_r, p1, p2, pr, oma, s2):
        ok[ci] &= (r1 >= t1 - 1e-9)[:, c1] & (r2 >= t2 - 1e-9)[:, c2]
    return ok


def _jensen_bound(count, sum_1, sum_2, h_r, p1, p2, pr, oma, s2, out):
    """(cells, triples) upper bound on each candidate's summed rate, in
    ``out``, from ``_mode_stats``' slot counts and gain sums.

    With h_r and the powers fixed, a vehicle's rate in one mode is
    c_m log2(1 + a g / (b + c g)) in its own gain g, with a, c >= 0 and
    b > 0, which is concave in g.  By Jensen's inequality its sum over the
    mode's n slots is at most n times its rate at their mean gain.  Rounding
    stays below the slack the caller allows: a relative 1e-9, and one
    smallest normal float per slot where the rates are subnormal.  A mean
    summed in any order is within about n ulps of the exact one, and a rate
    moves by at most the relative change of its own gain, so the order of
    the sums costs about n * 1e-16 relative.
    """
    out.fill(0.0)
    mean_1, mean_2 = (np.divide(s, count, out=np.zeros_like(s), where=count > 0) for s in (sum_1, sum_2))
    for ci, n, r1, r2, cols in _mode_rates(count, mean_1, mean_2, h_r, p1, p2, pr, oma, s2):
        for r, c in zip((r1, r2), cols):
            r *= n
            if ci.size == len(out):  # every cell uses the mode: add without a gather
                out += r[:, c]
            else:
                out[ci] += r[:, c]
    return out


def _square_gaps(axis, coord):
    """(axis value, slot) table of (axis - coord)^2."""
    gap = axis[:, None] - coord
    return gap * gap


def _grid_search(sc, xs, ys, p1_tri, p2_tri, pr_tri, objective):
    """Scan every (cell, triple) pair; first maximum in index order wins.

    Pass 1 builds each cell's per-slot gains, and for "sum" its per-slot
    modes, once, and keeps only ``_mode_stats``.  Pass 2 bounds and screens
    every pair from those statistics, and rebuilds the per-slot arrays for
    the cells it scores alone.
    """
    bs = sc.bs_position[:2]
    s2 = sc.noise_power
    n_cells = xs.size * ys.size
    n_tri = p1_tri.size
    n_slots = sc.slot_count
    t1, t2 = (float(v) for v in sc.rate_targets)
    targets = t1 > 0.0 or t2 > 0.0
    floor = n_slots * np.finfo(float).tiny  # the bound's absolute slack
    cells = np.arange(n_cells)
    h_r = channel_gain(np.stack([xs[cells // ys.size], ys[cells % ys.size]], axis=1), bs, sc.uav_height, sc.beta0)
    # A vehicle's gain at cell (x, y) is beta0 / ((x - vx)^2 + (y - vy)^2 + h^2),
    # channel_gain's order of operations: one table per axis and vehicle.
    gaps = [(_square_gaps(xs, path[:, 0]), _square_gaps(ys, path[:, 1])) for path in vehicle_paths(sc)]

    def slot_gains(idx):
        """(cells, slots) h_1 and h_2 of the cells ``idx``."""
        col, row = idx // ys.size, idx % ys.size
        return [sc.beta0 / (dx2[col] + dy2[row] + sc.uav_height**2) for dx2, dy2 in gaps]

    def slot_modes(idx, h_1, h_2):
        return MODE_OF_STATE[policy_states(h_r[idx, None], h_1, h_2, sc.mode_threshold)]

    # An OMA rate reads only its own vehicle's power and pr: index each
    # vehicle's distinct (p_k, pr) once, for the screen and the bounds.
    own1, inv1 = np.unique(np.stack([p1_tri, pr_tri], axis=1), axis=0, return_inverse=True)
    own2, inv2 = np.unique(np.stack([p2_tri, pr_tri], axis=1), axis=0, return_inverse=True)
    oma = ((own1, inv1), (own2, inv2))
    tri = (p1_tri, p2_tri, pr_tri)

    # Pass 1, in chunks of (cells, slots) arrays no larger than a scored
    # chunk's.  "min" schedules every slot OMA, and its bound reads only the
    # smallest gains.
    per_slot = max(1, int(CHUNK_EVALS // max(n_tri * n_slots, 1)))
    parts = []
    for lo in range(0, n_cells, per_slot):
        idx = cells[lo:lo + per_slot]
        h_1, h_2 = slot_gains(idx)
        if objective == "min":
            part = np.zeros((5, idx.size, 3))
            part[0, :, 2] = n_slots
            part[3:, :, 2] = h_1.min(axis=1), h_2.min(axis=1)
        else:
            part = _mode_stats(slot_modes(idx, h_1, h_2), h_1, h_2, targets)
        parts.append(part)
    count, sum_1, sum_2, low_1, low_2 = np.concatenate(parts, axis=1)
    del parts

    def scores(pc, pt):
        """Exact scores of the cell-major (cell, triple) pairs (pc, pt), per
        slot, pass 1's number of cells at a time: the summed rate, -inf where
        a slot misses a target, or the smaller worst-slot OMA rate for "min"."""
        first = np.r_[True, pc[1:] != pc[:-1]]
        rank = np.cumsum(first) - 1  # each pair's cell among the distinct ones
        out = []
        for g in range(0, rank[-1] + 1, per_slot):
            a, b = np.searchsorted(rank, [g, g + per_slot])
            idx = pc[a:b][first[a:b]]
            c, t = rank[a:b] - g, pt[a:b, None]
            h_1, h_2 = slot_gains(idx)
            modes = np.full(h_1.shape, 3) if objective == "min" else slot_modes(idx, h_1, h_2)
            r1, r2 = exact_rates(modes[c], h_r[idx[c], None], h_1[c], h_2[c], p1_tri[t], p2_tri[t], pr_tri[t], s2)
            low1, low2 = r1.min(axis=1), r2.min(axis=1)
            if objective == "min":
                out.append(np.minimum(low1, low2))
            else:
                out.append(np.where((low1 < t1) | (low2 < t2), -np.inf, (r1 + r2).sum(axis=1)))
        return out[0] if len(out) == 1 else np.concatenate(out)

    # Pass 2, in chunks of (cells, triples) arrays.
    per_pair = max(1, int(CHUNK_EVALS // ((8 if objective == "sum" else 2) * n_tri)))
    buffer = np.empty((min(per_pair, n_cells), n_tri)) if objective == "sum" else None
    best_val, best_cell, best_tri = -np.inf, -1, -1
    for lo in range(0, n_cells, per_pair):
        rows = slice(lo, lo + per_pair)
        if objective == "min":
            # The OMA rate rises with the vehicle's own gain, so each score is
            # its value at the vehicles' smallest gains up to rounding (a gain
            # a few ulps larger can give a rate an ulp lower), and never
            # above it.  Only the cells within a relative 1e-12 of the best
            # such value, or of the running best, can hold a new maximum;
            # they alone are scored exactly, per slot.
            ((_, _, r1, r2, (c1, c2)),) = _mode_rates(count[rows], low_1[rows], low_2[rows], h_r[rows], *tri, oma, s2)
            near = r1[:, c1]
            np.minimum(near, r2[:, c2], out=near)
            pc = lo + np.flatnonzero((near >= (1.0 - 1e-12) * max(near.max(), best_val)).any(axis=1))
            if not pc.size:
                continue
            pc, pt = np.repeat(pc, n_tri), np.tile(np.arange(n_tri), pc.size)
        else:
            # Only the pairs whose bound reaches the running best can beat
            # it, and the screen runs on their cells alone.
            stats = (count[rows], sum_1[rows], sum_2[rows], h_r[rows])
            bound = _jensen_bound(*stats, *tri, oma, s2, buffer[: n_cells - lo])
            ok = bound >= (best_val - floor) / (1.0 + 1e-9)
            if targets:
                ci = np.flatnonzero(ok.any(axis=1))
                at = lo + ci
                ok[ci] &= _weakest_link_ok(count[at], low_1[at], low_2[at], h_r[at], *tri, oma, s2, t1, t2)
            pc, pt = np.nonzero(ok)  # cell-major
            if not pc.size:
                continue
            # Score the top-bound pair first: a pair whose bound falls short
            # of an attained score is strictly below it, so it cannot be the
            # first maximum.  The rest are scored cell-major.
            bound = bound[pc, pt]
            top = np.argmax(bound)
            bar = max(best_val, scores(lo + pc[top:top + 1], pt[top:top + 1])[0])
            keep = bound >= (bar - floor) / (1.0 + 1e-9)
            pc, pt = lo + pc[keep], pt[keep]
        score = scores(pc, pt)
        j = int(np.argmax(score))
        if score[j] > best_val:
            best_val, best_cell, best_tri = float(score[j]), int(pc[j]), int(pt[j])
    return best_val, best_cell, best_tri


def static_placement_oracle(
    sc: Scenario,
    xy_step: float = 5.0,
    power_step: float = 0.01,
    objective: str = "sum",
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

    The search prunes only candidates that provably cannot win (see the
    module docstring), so it returns the first maximum of a plain scan.

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
        sc, xs, ys, pair1, pair2, np.full(pair1.shape, pr_top), objective
    )
    if not np.isfinite(val):
        # The policy's modes do not depend on power and every rate is
        # non-decreasing in pr, so a triple with a lower pr misses a target
        # wherever the same (p1, p2) at pr_top does: the rest of the relay
        # axis holds no feasible point either.
        raise ValueError("no grid point meets the per-slot rate targets")
    if val > 0.0:
        powers = np.array([pair1[tri], pair2[tri], pr_top])
    else:
        t1 = np.repeat(pair1, pr_feas.size)
        t2 = np.repeat(pair2, pr_feas.size)
        tr = np.tile(pr_feas, pair1.size)
        val, cell, tri = _grid_search(sc, xs, ys, t1, t2, tr, objective)
        powers = np.array([t1[tri], t2[tri], tr[tri]])
    position = np.array([xs[cell // ys.size], ys[cell % ys.size]])
    return position, powers, val


# ---- exact vs asymptotic rate tabulation ----

SUM_SLACK = 0.05  # bps/Hz the superposed sum rate may trail the orthogonal one
FLAG_ABOVE_DBM = 22.0  # ordering failures above this transmit power are violations


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
) -> Dict:
    """Tabulate exact and asymptotic rates over geometries and transmit powers.

    Each gain set is (h_r, h_1, h_2) with distinct vehicle gains.  For every
    power level P the BS spends p1 + p2 = P split noma_split between the
    vehicles (equal halves under the orthogonal scheme) and the relay spends
    pr = P.  Records carry exact rates, their closed-form high-SNR
    counterparts, absolute gaps, and the link-ordering case; the expected
    orderings (superposed sum-rate above orthogonal minus ``SUM_SLACK``,
    orthogonal min-rate above superposed) are checked per record and any
    failure above ``FLAG_ABOVE_DBM`` lands in the violations list.
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
            r_near, r_far = rates_for_mode(
                1, h_r, h_near, h_far, share_near * p_w, share_far * p_w, p_w, noise_power
            )
            o_near = oma_rate(h_r, h_near, 0.5 * p_w, p_w, noise_power)
            o_far = oma_rate(h_r, h_far, 0.5 * p_w, p_w, noise_power)
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
            sum_ok = exact["noma_sum"] >= exact["oma_sum"] - SUM_SLACK
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
            if p_dbm > FLAG_ABOVE_DBM and not (sum_ok and min_ok):
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
