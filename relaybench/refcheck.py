"""Reference checker for relay plans, written from the system model alone.

Nothing here imports ``relayplan``.  The checker rebuilds every quantity a
plan is judged by from the scenario's physical fields:

* free-space gains  h = beta0 / (|q - w|^2 + H^2), with sigma^2 = B 10^(N0/10)
  / 1000 and beta0 = 10^(SNR_ref/10) sigma^2;
* amplify-and-forward SINRs, derived from the relay's scaling
  rho^2 = P_r / (P_in h_r + noise): superposition coding with successive
  interference cancellation (SIC) at vehicle 1 or at vehicle 2, and the
  orthogonal split, where each vehicle gets half the band, half the noise
  and half the relay power;
* the threshold rule that picks each slot's mode: superposition, with SIC at
  the stronger vehicle, only when the relay link beats the weaker vehicle's
  link and 1/2 log2(min(h_r, h_strong) / h_weak) exceeds R_th;
* the constraint set: start, end, per-slot speed, flight box, energy
  budgets, non-negative powers, decoding order and per-slot rate targets.

Each ``check_*`` function returns a list of human-readable problems; an
empty list means the plan passed.
"""

import json
import math
from typing import Dict, List, Sequence

import numpy as np

SUPERPOSED_SIC1, SUPERPOSED_SIC2, ORTHOGONAL = 1, 2, 3

RATE_TOL = 1e-6  # targets: the solvers accept exact rates 1e-6 below target
MATCH_RTOL = 1e-9  # reported rates against rates recomputed here
GEOM_TOL = 1e-9  # relative slack on speed, box and energy limits


class Model:
    """Physical constants and kinematics of one scenario JSON object."""

    def __init__(self, raw: Dict, slots: int = None):
        self.raw = dict(raw)
        self.n = int(slots if slots is not None else raw["slot_count"])
        self.tau = float(raw["slot_duration_s"])
        self.height = float(raw["uav_height_m"])
        self.bs = np.asarray(raw["bs_position_m"], dtype=float)[:2]
        self.start = np.asarray(raw["uav_start_m"], dtype=float)
        self.end = np.asarray(raw["uav_end_m"], dtype=float)
        self.v_max = float(raw["uav_max_speed_mps"])
        self.box = [float(v) for v in raw["flight_box_m"]]
        self.veh0 = np.asarray(raw["vehicle_initial_m"], dtype=float)
        self.veh_v = np.asarray(raw["vehicle_velocity_mps"], dtype=float)
        self.p_bs = float(raw["avg_bs_power_w"])
        self.p_relay = float(raw["avg_relay_power_w"])
        self.targets = [float(v) for v in raw["rate_targets_bpshz"]]
        self.r_th = float(raw["mode_threshold_bpshz"])
        self.sigma2 = float(raw["bandwidth_hz"]) * 10.0 ** (float(raw["noise_density_dbm_per_hz"]) / 10.0) / 1000.0
        self.beta0 = 10.0 ** (float(raw["reference_snr_db"]) / 10.0) * self.sigma2

    @classmethod
    def load(cls, path: str, slots: int = None) -> "Model":
        with open(path) as fh:
            return cls(json.load(fh), slots)

    def vehicle(self, k: int) -> np.ndarray:
        """(N, 2) positions of vehicle k (0-based) at slots 1..N."""
        t = self.tau * np.arange(1, self.n + 1)[:, None]
        return self.veh0[k] + t * self.veh_v[k]

    def gain(self, q, node) -> np.ndarray:
        q, node = np.asarray(q, dtype=float), np.asarray(node, dtype=float)
        d2 = (q[..., 0] - node[..., 0]) ** 2 + (q[..., 1] - node[..., 1]) ** 2
        return self.beta0 / (d2 + self.height**2)

    def gains(self, traj):
        """(h_r, h_1, h_2) along a (N, 2) trajectory (or a broadcastable one)."""
        return self.gain(traj, self.bs), self.gain(traj, self.vehicle(0)), self.gain(traj, self.vehicle(1))

    def straight_line(self) -> np.ndarray:
        frac = np.arange(1, self.n + 1)[:, None] / self.n
        return self.start + frac * (self.end - self.start)


# ---- rates and the mode rule ----


def _af_sinr(h_in, h_out, p_sig, p_int, p_in, pr, noise):
    """SINR of one message forwarded by an AF relay.

    The relay receives total power p_in * h_in plus noise and scales it by
    rho^2 = pr / (p_in h_in + noise); the vehicle hears the wanted message at
    h_out rho^2 h_in p_sig against the interfering message h_out rho^2 h_in
    p_int, the forwarded relay noise h_out rho^2 noise and its own noise.
    """
    rho2 = pr / (p_in * h_in + noise)
    fwd = h_out * rho2
    return fwd * h_in * p_sig / (fwd * h_in * p_int + fwd * noise + noise)


def rates(modes, h_r, h_1, h_2, p1, p2, pr, sigma2):
    """Per-slot (R1, R2) in bps/Hz under per-slot modes 1, 2, 3."""
    modes, h_r, h_1, h_2, p1, p2, pr = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (modes, h_r, h_1, h_2, p1, p2, pr)))
    s = p1 + p2
    zero = np.zeros_like(p1)
    # superposition: the SIC vehicle decodes its own message interference
    # free, the other one treats the SIC vehicle's message as interference
    sic1 = (_af_sinr(h_r, h_1, p1, zero, s, pr, sigma2), _af_sinr(h_r, h_2, p2, p1, s, pr, sigma2))
    sic2 = (_af_sinr(h_r, h_1, p1, p2, s, pr, sigma2), _af_sinr(h_r, h_2, p2, zero, s, pr, sigma2))
    half = 0.5 * sigma2
    orth = (_af_sinr(h_r, h_1, p1, zero, p1, 0.5 * pr, half), _af_sinr(h_r, h_2, p2, zero, p2, 0.5 * pr, half))
    out = []
    for k in (0, 1):
        sinr = np.where(modes == SUPERPOSED_SIC1, sic1[k], np.where(modes == SUPERPOSED_SIC2, sic2[k], orth[k]))
        scale = np.where(modes == ORTHOGONAL, 0.5, 1.0)
        out.append(scale * np.log2(1.0 + sinr))
    return out[0], out[1]


def noma_gain(h_r, h_1, h_2):
    """(gain, SIC vehicle) of superposition over the orthogonal split.

    gain = 1/2 log2(min(h_r, h_strong) / h_weak) where the relay link beats
    the weaker vehicle's link, and -inf where it does not.
    """
    h_r, h_1, h_2 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (h_r, h_1, h_2)))
    first = h_1 >= h_2
    strong = np.where(first, h_1, h_2)
    weak = np.where(first, h_2, h_1)
    with np.errstate(divide="ignore"):
        gain = np.where(h_r > weak, 0.5 * np.log2(np.minimum(h_r, strong) / weak), -np.inf)
    return gain, np.where(first, SUPERPOSED_SIC1, SUPERPOSED_SIC2)


def policy_modes(h_r, h_1, h_2, r_th):
    gain, sic = noma_gain(h_r, h_1, h_2)
    return np.where(gain > r_th, sic, ORTHOGONAL)


# ---- plans ----


def trajectory_problems(m: Model, traj) -> List[str]:
    traj = np.asarray(traj, dtype=float)
    if traj.shape != (m.n, 2):
        return [f"trajectory shape {traj.shape}, expected ({m.n}, 2)"]
    out = []
    reach = m.v_max * m.tau * (1 + GEOM_TOL) + GEOM_TOL
    chain = np.vstack([m.start, traj, m.end])
    steps = np.hypot(*np.diff(chain, axis=0).T)
    for i in np.nonzero(steps > reach)[0]:
        where = "start" if i == 0 else "end" if i == m.n else f"slot {i + 1}"
        out.append(f"step into {where} is {steps[i]:.6f} m > V*tau = {m.v_max * m.tau:.6f} m")
    x0, x1, y0, y1 = m.box
    pad = GEOM_TOL * max(x1 - x0, y1 - y0)
    outside = ((traj[:, 0] < x0 - pad) | (traj[:, 0] > x1 + pad)
               | (traj[:, 1] < y0 - pad) | (traj[:, 1] > y1 + pad))
    for i in np.nonzero(outside)[0]:
        out.append(f"slot {i + 1} outside the flight box at {traj[i].tolist()}")
    return out


def power_problems(m: Model, p1, p2, pr, modes) -> List[str]:
    p1, p2, pr, modes = (np.asarray(a, dtype=float) for a in (p1, p2, pr, modes))
    out = []
    if min(p1.min(), p2.min(), pr.min()) < 0.0:
        out.append("negative power")
    if np.sum(p1 + p2) > m.n * m.p_bs * (1 + GEOM_TOL):
        out.append(f"BS energy {np.sum(p1 + p2):.9f} W*slot > budget {m.n * m.p_bs:.9f}")
    if np.sum(pr) > m.n * m.p_relay * (1 + GEOM_TOL):
        out.append(f"relay energy {np.sum(pr):.9f} W*slot > budget {m.n * m.p_relay:.9f}")
    # the SIC vehicle is the stronger one and needs the smaller power share
    slack = 1e-6 * m.p_bs
    for mode, near, far in ((SUPERPOSED_SIC1, p1, p2), (SUPERPOSED_SIC2, p2, p1)):
        bad = np.nonzero((modes == mode) & (near > far + slack))[0]
        if len(bad):
            out.append(f"decoding order violated in mode {mode} at slots {(bad + 1).tolist()}")
    return out


def target_problems(m: Model, r1, r2) -> List[str]:
    out = []
    for k, r in enumerate((r1, r2)):
        bad = np.nonzero(np.asarray(r) < m.targets[k] - RATE_TOL)[0]
        if len(bad):
            out.append(f"vehicle {k + 1} misses its {m.targets[k]} bps/Hz target at slots {(bad + 1).tolist()}")
    return out


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= MATCH_RTOL * np.maximum(1.0, np.abs(b))))


def check_sum_plan(m: Model, plan: Dict, objective: float) -> List[str]:
    """A sum-rate plan: constraints, targets, the mode rule, rates, objective.

    ``plan`` holds per-slot arrays x, y, p1, p2, pr, mode, R1, R2 as written
    by the planner; ``objective`` is its reported total sum rate.
    """
    traj = np.column_stack([plan["x"], plan["y"]])
    out = trajectory_problems(m, traj)
    if out:
        return out
    h_r, h_1, h_2 = m.gains(traj)
    want = policy_modes(h_r, h_1, h_2, m.r_th)
    gain, _ = noma_gain(h_r, h_1, h_2)
    # a slot whose gain sits on the threshold to rounding may go either way
    off = np.nonzero((want != plan["mode"]) & ~(np.abs(gain - m.r_th) <= 1e-12))[0]
    if len(off):
        out.append(f"mode differs from the threshold rule at slots {(off + 1).tolist()}")
    out += power_problems(m, plan["p1"], plan["p2"], plan["pr"], plan["mode"])
    r1, r2 = rates(plan["mode"], h_r, h_1, h_2, plan["p1"], plan["p2"], plan["pr"], m.sigma2)
    out += target_problems(m, r1, r2)
    if not (_close(plan["R1"], r1) and _close(plan["R2"], r2)):
        out.append("reported R1/R2 differ from the model's rates")
    if not _close(objective, float(np.sum(r1 + r2))):
        out.append(f"reported objective {objective!r} differs from the model's {float(np.sum(r1 + r2))!r}")
    return out


def equal_split_min_rate(m: Model) -> float:
    """Min rate of the straight-line, equal-split, orthogonal starting plan."""
    h_r, h_1, h_2 = m.gains(m.straight_line())
    r1, r2 = rates(ORTHOGONAL, h_r, h_1, h_2, 0.5 * m.p_bs, 0.5 * m.p_bs, m.p_relay, m.sigma2)
    return float(min(r1.min(), r2.min()))


def check_min_plan(m: Model, plan: Dict, objective: float) -> List[str]:
    """A min-rate plan: constraints, orthogonal mode, rates, no loss vs the start."""
    traj = np.column_stack([plan["x"], plan["y"]])
    out = trajectory_problems(m, traj)
    if out:
        return out
    if np.any(np.asarray(plan["mode"]) != ORTHOGONAL):
        out.append("min-rate plan uses a superposition slot")
    out += power_problems(m, plan["p1"], plan["p2"], plan["pr"], plan["mode"])
    h_r, h_1, h_2 = m.gains(traj)
    r1, r2 = rates(ORTHOGONAL, h_r, h_1, h_2, plan["p1"], plan["p2"], plan["pr"], m.sigma2)
    worst = float(min(r1.min(), r2.min()))
    if not (_close(plan["R1"], r1) and _close(plan["R2"], r2)):
        out.append("reported R1/R2 differ from the model's rates")
    if not _close(objective, worst):
        out.append(f"reported objective {objective!r} differs from the model's {worst!r}")
    start = equal_split_min_rate(m)
    if worst < start - RATE_TOL:
        out.append(f"min rate {worst!r} below the equal-split start's {start!r}")
    return out


# ---- static placement ----


def static_values(m: Model, cells, powers, objective: str) -> np.ndarray:
    """Objective of constant plans, one per row of cells (S, 2) and powers (S, 3).

    ``sum`` applies the mode rule per slot and scores -inf where a per-slot
    target is missed; ``min`` uses the orthogonal split and carries no target.
    """
    cells = np.asarray(cells, dtype=float)[:, None, :]
    powers = np.asarray(powers, dtype=float)
    h_r, h_1, h_2 = m.gain(cells, m.bs), m.gain(cells, m.vehicle(0)), m.gain(cells, m.vehicle(1))
    p1, p2, pr = (powers[:, i, None] for i in range(3))
    if objective == "sum":
        modes = policy_modes(h_r, h_1, h_2, m.r_th)
        r1, r2 = rates(modes, h_r, h_1, h_2, p1, p2, pr, m.sigma2)
        ok = (r1.min(axis=1) >= m.targets[0]) & (r2.min(axis=1) >= m.targets[1])
        return np.where(ok, (r1 + r2).sum(axis=1), -np.inf)
    r1, r2 = rates(ORTHOGONAL, h_r, h_1, h_2, p1, p2, pr, m.sigma2)
    return np.minimum(r1, r2).min(axis=1)


def policy_edge_x(m: Model, y: float) -> float:
    """x where slot 1's superposition gain via the relay equals R_th.

    Solves 1/2 log2(h_r / h_2) = R_th for a relay at (x, y) with vehicle 2 at
    its slot-1 position v and the BS at w:
    |q - v|^2 + H^2 = k (|q - w|^2 + H^2), k = 2^(2 R_th), a quadratic
    a x^2 - 2 b x + c = 0 whose root between the BS and the vehicle is
    c / (b + sqrt(b^2 - a c)).
    """
    k = 2.0 ** (2.0 * m.r_th)
    bx, by = m.bs
    vx, vy = m.vehicle(1)[0]
    hh = m.height**2
    a = 1.0 - k
    b = vx - k * bx
    c = vx**2 + (y - vy) ** 2 + hh - k * (bx**2 + (y - by) ** 2 + hh)
    return c / (b + math.sqrt(b * b - a * c))


def check_static_result(m: Model, objective: str, position: Sequence[float], powers: Sequence[float],
                        value: float, sample_cells, sample_powers, xy_step: float) -> List[str]:
    """A brute-force placement result against the model.

    The value must match the model at the returned cell and powers, no
    sampled candidate may beat it, and for ``sum`` the returned x must lie
    within one grid step east of the slot-1 policy edge.
    """
    out = []
    own = float(static_values(m, [position], [powers], objective)[0])
    if not _close(value, own):
        out.append(f"{objective} value {value!r} differs from the model's {own!r} at the returned point")
    sampled = static_values(m, sample_cells, sample_powers, objective)
    beat = np.nonzero(sampled > value + MATCH_RTOL * max(1.0, abs(value)))[0]
    if len(beat):
        i = beat[0]
        out.append(f"sampled candidate {np.asarray(sample_cells)[i].tolist()} with powers "
                   f"{np.asarray(sample_powers)[i].tolist()} beats the {objective} result: {sampled[i]!r}")
    if objective == "sum":
        edge = policy_edge_x(m, float(position[1]))
        if not 0.0 <= float(position[0]) - edge < xy_step:
            out.append(f"sum optimum x = {position[0]} not within one {xy_step} m step east of the edge {edge:.3f}")
    return out
