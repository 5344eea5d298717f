"""Slow-but-trustworthy references for the iterative machinery.

Exhaustive placement/power search over a discrete grid and
exact-versus-asymptotic rate tabulation.  Everything
here favours being simple enough to audit by eye over speed.  The search's
three shortcuts, a mean-gain (Jensen) bound on the sum objective, a per-mode
weakest-link screen under rate targets and a smallest-gain bound on the min
objective, skip only candidates that provably cannot win and leave every
result unchanged bit for bit (see ``static_placement_oracle``).
"""

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from relayplan.modes import MODE_OF_STATE, policy_states
from relayplan.rates import high_snr_rates, oma_rate, rates_for_mode
from relayplan.scenario import Scenario, channel_gain, vehicle_paths

CHUNK_EVALS = 8e5  # rate evaluations (cells x triples x slots) per chunk of the grid search


# ---- exhaustive placement / power search ----


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(max(count, 0))


def _smallest(in_mode, h_k):
    return np.where(in_mode, h_k, np.inf).min(axis=1)


def _mean(in_mode, h_k):
    return np.where(in_mode, h_k, 0.0).sum(axis=1) / in_mode.sum(axis=1)


def _mode_rates(modes, h_r, h_1, h_2, p1, p2, pr, oma, s2, pick):
    """Per mode present: (cells ci, their slot mask, R1, R2, columns).

    Column ``cols[k][t]`` of vehicle k's rates is triple t's rate in the
    mode at one gain per cell and vehicle, ``pick(in_mode, h_k)`` over that
    cell's slots of the mode.  R1 never reads h_2 and R2 never reads h_1, so
    each vehicle's rate is its own at the gain picked.  NOMA rates have one
    column per triple.  OMA rates have one per distinct (p_k, pr) of
    ``oma``, which also holds each triple's row of that table.
    """
    for mode in (1, 2, 3):
        in_mode = modes == mode
        ci = np.nonzero(in_mode.any(axis=1))[0]
        if not ci.size:
            continue
        w1, w2 = (pick(in_mode[ci], h_k[ci])[:, None] for h_k in (h_1, h_2))
        if mode == 3:
            r1, r2 = (oma_rate(h_r[ci, None], w, own[:, 0], own[:, 1], s2) for w, (own, _) in zip((w1, w2), oma))
            cols = tuple(inv for _, inv in oma)
        else:
            r1, r2 = rates_for_mode(mode, h_r[ci, None], w1, w2, p1, p2, pr, s2)
            cols = (slice(None), slice(None))
        yield ci, in_mode[ci], r1, r2, cols


def _weakest_link_ok(modes, h_r, h_1, h_2, p1, p2, pr, oma, s2, t1, t2):
    """(cells, triples) mask of the candidates that may meet both rate targets.

    Each rate rises with its own gain, so the rate pair of a mode at its
    smallest h_1 and smallest h_2 gives each vehicle its rate in a real slot
    of that mode: a miss there is a miss in the exact per-slot test, up to
    the rounding that the 1e-9 slack absorbs.
    """
    ok = np.ones((h_r.size, p1.size), dtype=bool)
    for ci, _, r1, r2, (c1, c2) in _mode_rates(modes, h_r, h_1, h_2, p1, p2, pr, oma, s2, _smallest):
        ok[ci] &= (r1 >= t1 - 1e-9)[:, c1] & (r2 >= t2 - 1e-9)[:, c2]
    return ok


def _jensen_bound(modes, h_r, h_1, h_2, p1, p2, pr, oma, s2):
    """(cells, triples) upper bound on each candidate's summed rate.

    With h_r and the powers fixed, a vehicle's rate in one mode is
    c_m log2(1 + a g / (b + c g)) in its own gain g, with a, c >= 0 and
    b > 0, which is concave in g.  By Jensen's inequality its sum over the
    mode's n slots is at most n times its rate at their mean gain.  Rounding
    stays below the slack the caller allows: a relative 1e-9, and one
    smallest normal float per slot where the rates are subnormal.
    """
    bound = np.zeros((h_r.size, p1.size))
    for ci, in_mode, r1, r2, (c1, c2) in _mode_rates(modes, h_r, h_1, h_2, p1, p2, pr, oma, s2, _mean):
        n = in_mode.sum(axis=1)[:, None]
        part = (n * r1)[:, c1]
        part += (n * r2)[:, c2]
        if ci.size == len(bound):  # every cell uses the mode: add without a gather
            bound += part
        else:
            bound[ci] += part
    return bound


def _pair_rates(modes, h_r, h_1, h_2, pc, pt, p1, p2, pr, oma, s2):
    """(pairs, slots) rates R1 and R2 of the (cell, triple) pairs ``pc, pt``,
    given cell-major, under each cell's per-slot policy ``modes``.

    Every slot starts from OMA: one row per distinct (cell, (p_k, pr)) of
    each vehicle, gathered to its pairs.  A cell's NOMA slots are then
    evaluated at that cell's contiguous block of pairs only.
    """
    n_cells, n_slots = modes.shape
    rates = []
    for h_k, (own, inv) in zip((h_1, h_2), oma):
        # mark the (cell, own row) keys in use; no sort, as pairs can far
        # outnumber slots
        key = pc * len(own) + inv[pt]
        used = np.zeros(n_cells * len(own), dtype=bool)
        used[key] = True
        c, o = np.divmod(np.flatnonzero(used), len(own))
        row = np.cumsum(used) - 1
        rates.append(oma_rate(h_r[c, None], h_k[c], own[o, :1], own[o, 1:], s2)[row[key]])
    r1, r2 = rates
    bounds = np.searchsorted(pc, np.arange(n_cells + 1))  # each cell's block of pairs
    start, count = bounds[:-1], np.diff(bounds)
    for mode in (1, 2):
        ci, si = np.nonzero(modes == mode)
        reps = count[ci]  # each (cell, slot) entry is evaluated at its cell's pairs
        total = int(reps.sum())
        if not total:
            continue
        pair = np.arange(total) + np.repeat(start[ci] - (np.cumsum(reps) - reps), reps)
        tri = pt[pair]
        spread = lambda v: np.repeat(v, reps)
        x1, x2 = rates_for_mode(
            mode, spread(h_r[ci]), spread(h_1[ci, si]), spread(h_2[ci, si]), p1[tri], p2[tri], pr[tri], s2
        )
        flat = pair * n_slots + spread(si)
        r1.reshape(-1)[flat], r2.reshape(-1)[flat] = x1, x2
    return r1, r2


def _sum_scores(modes, h_r, h_1, h_2, pairs, n_tri, p1, p2, pr, oma, s2, t1, t2):
    """Exact summed rates of the cell-major (cell, triple) ``pairs``,
    -inf where a slot misses a rate target."""
    pc = pairs // n_tri
    r1, r2 = _pair_rates(modes, h_r, h_1, h_2, pc, pairs - pc * n_tri, p1, p2, pr, oma, s2)
    score = (r1 + r2).sum(axis=1)
    score[(r1.min(axis=1) < t1) | (r2.min(axis=1) < t2)] = -np.inf
    return score


def _square_gaps(axis, coord):
    """(axis value, slot) table of (axis - coord)^2."""
    gap = axis[:, None] - coord
    return gap * gap


def _grid_search(sc, xs, ys, p1_tri, p2_tri, pr_tri, objective):
    """Scan every (cell, triple) pair; first maximum in index order wins."""
    bs = sc.bs_position[:2]
    s2 = sc.noise_power
    n_cells = xs.size * ys.size
    n_tri = p1_tri.size
    n_slots = sc.slot_count
    t1, t2 = (float(v) for v in sc.rate_targets)
    targets = t1 > 0.0 or t2 > 0.0
    floor = n_slots * np.finfo(float).tiny  # the bound's absolute slack
    # A vehicle's gain at cell (x, y) is beta0 / ((x - vx)^2 + (y - vy)^2 + h^2),
    # channel_gain's order of operations: one table per axis and vehicle.
    gaps = [(_square_gaps(xs, path[:, 0]), _square_gaps(ys, path[:, 1])) for path in vehicle_paths(sc)]
    # An OMA rate reads only its own vehicle's power and pr: index each
    # vehicle's distinct (p_k, pr) once, for the screen, the bound and the
    # OMA rows.
    own1, inv1 = np.unique(np.stack([p1_tri, pr_tri], axis=1), axis=0, return_inverse=True)
    own2, inv2 = np.unique(np.stack([p2_tri, pr_tri], axis=1), axis=0, return_inverse=True)
    oma = ((own1, inv1), (own2, inv2))
    tri = (p1_tri, p2_tri, pr_tri)
    chunk = max(1, int(CHUNK_EVALS // max(n_tri * n_slots, 1)))
    best_val, best_cell, best_tri = -np.inf, -1, -1
    for lo in range(0, n_cells, chunk):
        idx = np.arange(lo, min(lo + chunk, n_cells))
        col, row = idx // ys.size, idx % ys.size
        h_r = channel_gain(np.stack([xs[col], ys[row]], axis=1), bs, sc.uav_height, sc.beta0)
        h_1, h_2 = (sc.beta0 / (dx2[col] + dy2[row] + sc.uav_height**2) for dx2, dy2 in gaps)
        if objective == "min":
            # The OMA rate rises with the vehicle's own gain, so each score is
            # its value at the vehicles' smallest gains up to rounding (a gain
            # a few ulps larger can give a rate an ulp lower), and never
            # above it.  Only the cells within a relative 1e-12 of the best
            # such value, or of the running best, can hold a new maximum;
            # they alone are scored exactly, per slot.
            near = np.minimum(*(
                oma_rate(h_r[:, None], h_k.min(axis=1)[:, None], own[:, 0], own[:, 1], s2)[:, inv]
                for h_k, own, inv in ((h_1, own1, inv1), (h_2, own2, inv2))
            ))
            cells = (near >= (1.0 - 1e-12) * max(near.max(), best_val)).any(axis=1)
            if not cells.any():
                continue
            idx, h_r, h_1, h_2 = idx[cells], h_r[cells], h_1[cells], h_2[cells]
            o1, o2 = (
                oma_rate(h_r[:, None, None], h_k[:, None, :], own[None, :, :1], own[None, :, 1:], s2)
                for h_k, own in ((h_1, own1), (h_2, own2))
            )
            score = np.minimum(o1.min(axis=2)[:, inv1], o2.min(axis=2)[:, inv2]).ravel()
            kept = np.arange(score.size)
        else:
            modes = MODE_OF_STATE[policy_states(h_r[:, None], h_1, h_2, sc.mode_threshold)]
            # Only the pairs whose bound reaches the running best can beat
            # it, and the screen runs on their cells alone.
            bound = _jensen_bound(modes, h_r, h_1, h_2, *tri, oma, s2)
            ok = bound >= (best_val - floor) / (1.0 + 1e-9)
            if targets:
                ci = np.nonzero(ok.any(axis=1))[0]
                ok[ci] &= _weakest_link_ok(modes[ci], h_r[ci], h_1[ci], h_2[ci], *tri, oma, s2, t1, t2)
            kept = np.flatnonzero(ok)
            if not kept.size:
                continue
            # Score the top-bound pair first: a pair whose bound falls short
            # of an attained score is strictly below it, so it cannot be the
            # first maximum.  The rest are scored cell-major.
            args = (modes, h_r, h_1, h_2)
            bound = bound.ravel()
            top = kept[np.argmax(bound[kept])]
            bar = max(best_val, _sum_scores(*args, top[None], n_tri, *tri, oma, s2, t1, t2)[0])
            kept = kept[bound[kept] >= (bar - floor) / (1.0 + 1e-9)]
            score = _sum_scores(*args, kept, n_tri, *tri, oma, s2, t1, t2)
        j = int(np.argmax(score))
        if score[j] > best_val:
            best_val = float(score[j])
            best_cell = int(idx[kept[j] // n_tri])
            best_tri = int(kept[j] % n_tri)
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

    The sum search scores (cell, triple) pairs exactly, per slot: each
    vehicle's OMA rates come from one row per distinct (cell, (p_k, pr)),
    and its NOMA rates are evaluated only at the pair's mode-1 and mode-2
    slots.  Two shortcuts pick the pairs to score.  In every mode a
    vehicle's rate reads only h_r and its own link gain.  It is concave in
    that gain, so by Jensen's inequality its sum over a mode's n slots is at
    most n times its rate at the mean gain.  Each chunk of cells evaluates
    each mode present once at those mean gains, for every pair, and keeps
    only the pairs whose bound reaches the best score found so far, less a
    relative 1e-9 and one smallest normal float per slot for rounding.  The kept pair with the top bound is scored
    first and raises that bar.  The rate also rises with its own gain, so
    a vehicle's worst slot of a mode is the one with its smallest gain.
    Under positive targets a weakest-link screen evaluates each mode
    present once at those smallest gains, on the cells the bound keeps, and
    keeps only the pairs that clear every target there (less 1e-9 for
    rounding).  Every pair dropped is strictly below a score already
    attained or misses a target in a real slot, and the kept ones are
    scored exactly as without the shortcuts, so the first maximum in index
    order, and the result, are the same bit for bit.
    The min objective likewise rates each vehicle once, at its smallest gain
    over the horizon, and scores per slot only the cells whose rate there
    comes within a relative 1e-12 of the best, in the chunk or so far, so
    it too keeps every result.

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
