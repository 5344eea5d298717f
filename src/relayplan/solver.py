"""Alternating-optimization drivers for trajectory and power planning.

Two decision blocks alternate: the relay track (2N coordinates) and the
transmit powers (3N per-slot values).  Each outer iteration linearizes the
rate expressions once (module ``sca``) and solves the resulting concave
subproblem with the feasible-start barrier engine (module ``barrier``).
Decision vectors are preconditioned -- coordinates divided by 100, powers by
their per-slot budget -- so the Newton systems stay well scaled.

Bookkeeping conventions:

* ``bound`` objectives are the surrogate values the subproblems maximize;
  they minorize the exact rates, touch them (through the DC/convexified
  stage) at the expansion point, and their per-iteration optima are
  non-decreasing by construction.
* ``exact`` objectives are recomputed from the un-approximated rate
  formulas after every outer iteration and drive the stopping rule.
* Per-slot rate-target rows are expressed through the bounds.  A row that
  is already violated by the bound at the subproblem's start point cannot
  enter a feasible-start barrier, so it is dropped for that solve and
  recorded; targets are re-checked against exact rates at the end.
"""

import dataclasses
import time
from typing import Dict, List, Optional

import numpy as np

from . import rates, sca
from .barrier import BoxBlock, LinearBlock, concave_max
from .modes import ModeSchedule, mode_schedule
from .scenario import (
    Scenario,
    channel_state,
    initial_trajectory,
    validate_trajectory,
    vehicle_paths,
)

LENGTH_SCALE = 100.0  # metres per unit of a scaled coordinate
MAX_OUTER = 30
REL_TOL = 1e-4  # outer stopping rule on the exact objective
MODE_FREEZE_TOL = 1e-3  # freeze mode flips below this relative improvement
BACKOFF = 1e-3  # pull boundary-tight starts into the interior
TARGET_MARGIN = 1e-9  # strict-interior margin for keeping a target row
TARGET_SLACK = 5e-7  # sub-tolerance rhs relaxation so a tight row stays interior
FEAS_TOL = 1e-6


class InfeasibleProblemError(RuntimeError):
    """A driver could not meet its constraints; carries offending slots."""

    def __init__(self, message: str, slots: Optional[List[int]] = None):
        super().__init__(message)
        self.slots = list(slots) if slots is not None else []


@dataclasses.dataclass(frozen=True)
class PowerAllocation:
    """Per-slot transmit powers for the two messages and the relay."""

    p1: np.ndarray
    p2: np.ndarray
    pr: np.ndarray

    def __post_init__(self):
        for name in ("p1", "p2", "pr"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.p1.shape == self.p2.shape == self.pr.shape):
            raise ValueError("power arrays must share one shape")

    def bs_sum(self) -> float:
        return float(np.sum(self.p1 + self.p2))

    def relay_sum(self) -> float:
        return float(np.sum(self.pr))


@dataclasses.dataclass
class SolverResult:
    """Converged plan plus per-iteration bookkeeping."""

    trajectory: np.ndarray
    powers: PowerAllocation
    schedule: ModeSchedule
    slots: np.recarray  # per-slot exact rates, fields r1 and r2
    objective: float
    objective_history: List[float]
    history: List[Dict]
    newton_steps: List[int]
    converged: bool
    wall_time: float
    diagnostics: Dict


# ---- exact-rate helpers ----


def _exact_rate_arrays(sc, cs, modes, powers):
    return rates.exact_rates(
        modes, cs.h_r, cs.h_1, cs.h_2, powers.p1, powers.p2, powers.pr, sc.noise_power
    )


def _dc_objective(sc, cs, modes, powers) -> float:
    """Exact DC-form sum rate (anchor value of the power-side bound)."""
    gr, g1, g2 = _normalized_gains(sc, cs, modes)
    total = 0.0
    for m in (1, 2, 3):
        sel = modes == m
        if not np.any(sel):
            continue
        for k in (1, 2):
            total += float(
                np.sum(
                    sca.dc_rate_vehicle(
                        m, k, gr[sel], g1[sel], g2[sel],
                        powers.p1[sel], powers.p2[sel], powers.pr[sel],
                    )
                )
            )
    return total


def _target_violations(sc, cs, modes, powers, tol=FEAS_TOL):
    """Slots whose exact rates miss the per-vehicle targets."""
    r1, r2 = _exact_rate_arrays(sc, cs, modes, powers)
    t1, t2 = float(sc.rate_targets[0]), float(sc.rate_targets[1])
    bad = (r1 < t1 - tol) | (r2 < t2 - tol)
    return [int(i) for i in np.nonzero(bad)[0]]


def _rebalance_for_targets(sc, cs, modes, powers: PowerAllocation,
                           tol=FEAS_TOL) -> PowerAllocation:
    """Per-slot BS split repair so exact rates meet the targets under `modes`.

    At fixed s = p1 + p2 and pr, R1 is increasing and R2 decreasing in p1 in
    every mode, so each target pins one end of a p1 interval; we bisect to the
    ends and sit at the midpoint.  Decoding order caps the interval at s/2
    from the matching side.  An empty interval at any slot means no split of
    this slot's budget satisfies both targets and is reported as infeasible.
    """
    t1, t2 = float(sc.rate_targets[0]), float(sc.rate_targets[1])
    bad = _target_violations(sc, cs, modes, powers, tol=tol)
    if not bad:
        return powers
    p1 = powers.p1.copy()
    p2 = powers.p2.copy()
    stuck = []
    for n in bad:
        h = (cs.h_r[n], cs.h_1[n], cs.h_2[n])
        s = p1[n] + p2[n]
        pr = powers.pr[n]
        mode = int(modes[n])
        lo, hi = 0.0, s
        if mode == 1:
            hi = 0.5 * s
        elif mode == 2:
            lo = 0.5 * s

        def rate_pair(share):
            return rates.rates_for_mode(mode, *h, share, s - share, pr, sc.noise_power)

        def cut(target, idx, want_low):
            # smallest (want_low) or largest p1 with rate idx above target
            a, b = lo, hi
            ra = rate_pair(a)[idx] - target
            rb = rate_pair(b)[idx] - target
            good_a, good_b = ra >= 0, rb >= 0
            if want_low and good_a:
                return lo
            if not want_low and good_b:
                return hi
            if want_low and not good_b:
                return None
            if not want_low and not good_a:
                return None
            for _ in range(80):
                m = 0.5 * (a + b)
                if (rate_pair(m)[idx] >= target) == want_low:
                    b = m
                else:
                    a = m
            return b if want_low else a

        need_lo = cut(t1, 0, want_low=True)
        need_hi = cut(t2, 1, want_low=False)
        if need_lo is None or need_hi is None or need_lo > need_hi:
            stuck.append(n)
            continue
        p1[n] = 0.5 * (need_lo + need_hi)
        p2[n] = s - p1[n]
    if stuck:
        raise InfeasibleProblemError(
            f"no split of the slot budget meets both rate targets at slots {stuck}",
            slots=stuck,
        )
    return PowerAllocation(p1, p2, powers.pr)


def _oma_schedule(cs, sc) -> ModeSchedule:
    """Policy states with the NOMA gain threshold pushed to infinity."""
    return mode_schedule(cs, dataclasses.replace(sc, mode_threshold=np.inf))


# ---- bound-term assembly ----


def _normalized_gains(sc, cs, modes):
    """Per-slot gains over the mode-appropriate noise power."""
    fac = np.where(np.asarray(modes) == 3, 2.0, 1.0) / sc.noise_power
    return fac * cs.h_r, fac * cs.h_1, fac * cs.h_2


def _power_terms(sc, cs, modes, anchor: PowerAllocation) -> Dict[int, sca.PowerBound]:
    gr, g1, g2 = _normalized_gains(sc, cs, modes)
    scale = np.array([sc.avg_bs_power, sc.avg_bs_power, sc.avg_relay_power])
    return {
        k: sca.power_lb_build(modes, k, gr, g1, g2, anchor.p1, anchor.p2, anchor.pr, scale)
        for k in (1, 2)
    }


def _traj_terms(sc, cs_l, modes, powers) -> Dict[int, sca.TrajectoryBound]:
    paths = vehicle_paths(sc)
    return {
        k: sca.trajectory_lb_build(
            modes, k, powers.p1, powers.p2, powers.pr,
            cs_l.psi_r, cs_l.psi_1 if k == 1 else cs_l.psi_2,
            paths[k - 1], sc.bs_position, sc.noise_power / sc.beta0,
            sc.uav_height ** 2, LENGTH_SCALE,
        )
        for k in (1, 2)
    }


# ---- rate rows ----


class SlotRowBlock:
    """Rows row_n(z[slots[n]]) - rhs_n (- z[epi_idx]) >= 0, one per slot.

    ``terms.local`` gives each row's value, gradient and Hessian over its
    own slot's d variables, whose positions in z are the row of ``slots``.
    An epigraph scalar's position is appended to every row's ``cols``.
    """

    def __init__(self, terms, slots, rhs, epi_idx=None, label="rate target"):
        self.terms = terms
        self.slots = np.asarray(slots, dtype=int)
        self.rhs = rhs
        self.epi = epi_idx
        self.count = len(self.slots)
        self.label = label
        self.cols = self.slots
        if epi_idx is not None:
            self.cols = np.column_stack([self.slots, np.full(self.count, epi_idx)])

    def evaluate(self, z, order):
        vals, grad, hess = self.terms.local(z[self.slots], order)
        vals = vals - self.rhs
        if self.epi is None:
            return vals, grad, hess
        if order >= 1:
            grad = np.column_stack([grad, np.full(self.count, -1.0)])
        if order == 2:
            d = hess.shape[1]
            hess, local = np.zeros((self.count, d + 1, d + 1)), hess
            hess[:, :d, :d] = local
        return vals - z[self.epi], grad, hess


class _EpigraphObjective:
    """Maximize the appended epigraph scalar: one row, z[t_idx]."""

    count = 1
    label = "epigraph objective"
    _grad = np.ones((1, 1))

    def __init__(self, t_idx):
        self.cols = np.array([[t_idx]])

    def evaluate(self, z, order):
        return z[self.cols[0]], (self._grad if order else None), None


# ---- constraint blocks beyond the generic barrier ones ----


class VelocityChainBlock:
    """Per-step reach circles along [start, q_0, ..., q_{N-1}, end].

    Gap j joins slot j - 1 (or the start) to slot j (or the end), and its
    row reads both slots' (x, y), whose positions in z are rows of
    ``slots``.  The first and last gaps repeat their one slot's positions
    with zero derivatives, so every row has four columns.
    """

    # Hessian of -|q_right - q_left|^2 over (left x, left y, right x, right y)
    _PAIR = -2.0 * np.block([[np.eye(2), -np.eye(2)], [-np.eye(2), np.eye(2)]])

    def __init__(self, slots, start, end, radius, label="velocity"):
        self.slots = np.asarray(slots, dtype=int)
        n = len(self.slots)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.r2 = float(radius) ** 2
        self.count = n + 1
        self.label = label
        left = self.slots[np.r_[0, 0:n]]
        right = self.slots[np.r_[0:n, n - 1]]
        self.cols = np.hstack([left, right])
        self.left = np.r_[0.0, np.ones(n)][:, None]  # gap 0 starts at uav_start
        self.right = np.r_[np.ones(n), 0.0][:, None]  # gap n ends at uav_end
        side = np.hstack([self.left, self.left, self.right, self.right])
        self.hess = LENGTH_SCALE**2 * self._PAIR * side[:, :, None] * side[:, None, :]

    def evaluate(self, z, order):
        q = LENGTH_SCALE * z[self.slots]
        gap = np.diff(np.vstack([self.start, q, self.end]), axis=0)
        dx, dy = gap.T
        vals = self.r2 - dx * dx - dy * dy
        if order == 0:
            return vals, None, None
        g = 2.0 * LENGTH_SCALE * gap
        grad = np.hstack([self.left * g, -self.right * g])
        return vals, grad, (self.hess if order == 2 else None)


class PairDiffBlock:
    """Rows z[hi] - z[lo] >= 0 (slot-wise decoding-order constraints)."""

    def __init__(self, hi_idx, lo_idx, label="decoding order"):
        self.hi = np.asarray(hi_idx, dtype=int)
        self.lo = np.asarray(lo_idx, dtype=int)
        self.count = len(self.hi)
        self.label = label
        self.cols = np.column_stack([self.hi, self.lo])
        self._grad = np.tile([1.0, -1.0], (self.count, 1))

    def evaluate(self, z, order):
        return z[self.hi] - z[self.lo], (self._grad if order else None), None


# ---- start-point preparation ----


def _prepare_power_start(sc, modes, powers, check=False):
    """Shift a feasible start strictly inside the power constraint set.

    Boundary-tight budgets are scaled back, decoding-order ties are tilted
    (sum preserved), and exact zeros are floored.  With ``check`` a start
    violating a constraint family raises instead of being repaired.
    """
    ps, prs = sc.avg_bs_power, sc.avg_relay_power
    p1, p2, pr = powers.p1.copy(), powers.p2.copy(), powers.pr.copy()
    n = len(p1)
    if check:
        families = []
        if min(p1.min(), p2.min(), pr.min()) < -1e-12:
            families.append("nonnegativity")
        if np.sum(p1 + p2) > n * ps * (1 + 1e-9) or np.sum(pr) > n * prs * (1 + 1e-9):
            families.append("energy budget")
        m1, m2 = modes == 1, modes == 2
        if np.any(p1[m1] > p2[m1] * (1 + 1e-9) + 1e-15) or np.any(
            p2[m2] > p1[m2] * (1 + 1e-9) + 1e-15
        ):
            families.append("decoding order")
        if families:
            raise InfeasibleProblemError(
                "infeasible start: " + ", ".join(families) + " violated"
            )
    floor = 1e-9
    p1 = np.maximum(p1, floor * ps)
    p2 = np.maximum(p2, floor * ps)
    pr = np.maximum(pr, floor * prs)
    for sel, near_first in ((modes == 1, True), (modes == 2, False)):
        if not np.any(sel):
            continue
        near, far = (p1, p2) if near_first else (p2, p1)
        mean = 0.5 * (near[sel] + far[sel])
        tie = far[sel] - near[sel] < BACKOFF * mean
        if np.any(tie):
            i = np.nonzero(sel)[0][tie]
            m = mean[tie]
            near[i] = m * (1.0 - 0.5 * BACKOFF)
            far[i] = m * (1.0 + 0.5 * BACKOFF)
    bs_used = np.sum(p1 + p2)
    if bs_used > n * ps * (1 - BACKOFF):
        scale = n * ps * (1 - BACKOFF) / bs_used
        p1 *= scale
        p2 *= scale
    r_used = np.sum(pr)
    if r_used > n * prs * (1 - BACKOFF):
        pr *= n * prs * (1 - BACKOFF) / r_used
    return PowerAllocation(p1, p2, pr)


def _clamp_into_box(sc, traj):
    """Nudge coordinates off the flight-box walls (interior start needed)."""
    xmin, xmax, ymin, ymax = sc.flight_box
    pad_x = 1e-7 * (xmax - xmin)
    pad_y = 1e-7 * (ymax - ymin)
    out = np.array(traj, dtype=float)
    out[:, 0] = np.clip(out[:, 0], xmin + pad_x, xmax - pad_x)
    out[:, 1] = np.clip(out[:, 1], ymin + pad_y, ymax - pad_y)
    return out


def _epigraph_start(bound_rows_min):
    return bound_rows_min - max(1e-9, MODE_FREEZE_TOL * abs(bound_rows_min))


# ---- single linearize-and-solve passes ----


def _subproblem(sc, terms, slots, width, z0, blocks, objective: str, step: str, diag: Dict):
    """Add both vehicles' rate rows to the fixed ``blocks`` and solve.

    z is slot-major: ``slots[n]`` holds the positions of slot n's d
    variables, which fill z[:d * n] in order.  The barrier sees them as a
    band of ``width`` and at most the epigraph scalar as its border.  For
    "sum" the objective is the rows summed, and a vehicle's target rows
    are kept at the slots whose bound clears the target at the start; the
    others are dropped and recorded under ``step``.  For "min" an epigraph
    scalar is appended to z and every row must stay above it.  Capped
    barrier stages and failed solves are counted in ``diag``.  Returns
    (z, bound, info), bound being the subproblem's optimum.
    """
    rows = [SlotRowBlock(terms[k], slots, 0.0) for k in (1, 2)]
    start = [row.evaluate(z0, 0)[0] for row in rows]
    blocks = list(blocks)
    if objective == "min":
        t_idx = len(z0)
        z0 = np.append(z0, _epigraph_start(float(min(start[0].min(), start[1].min()))))
        for k in (1, 2):
            blocks.append(SlotRowBlock(
                terms[k], slots, 0.0, epi_idx=t_idx, label=f"epigraph rate v{k}"
            ))
        obj = [_EpigraphObjective(t_idx)]
    else:
        for k, r0 in zip((1, 2), start):
            target = float(sc.rate_targets[k - 1])
            if target <= 0.0:
                continue
            rhs = target - TARGET_SLACK
            keep = r0 - rhs > TARGET_MARGIN
            dropped = np.nonzero(~keep)[0]
            if len(dropped):
                diag.setdefault("dropped_target_rows", []).append(
                    {"step": step, "vehicle": k, "slots": dropped.tolist()}
                )
            if np.any(keep):
                idx = np.nonzero(keep)[0]
                blocks.append(SlotRowBlock(
                    terms[k].sub(idx), slots[idx], rhs, label=f"rate target v{k}"
                ))
        obj = rows
    z, info = concave_max(obj, blocks, z0, band=(slots.size, width))
    diag["capped_stages"] = diag.get("capped_stages", 0) + info.capped_stages
    diag["failed_solves"] = diag.get("failed_solves", 0) + int(info.line_search_failed)
    if objective == "min":
        bound = float(z[-1])
    else:
        bound = float(sum(row.evaluate(z, 0)[0].sum() for row in rows))
    return z, bound, info


def _power_step(sc, cs, modes, start: PowerAllocation, objective: str, diag: Dict):
    """Build and solve one power subproblem around ``start``."""
    n = sc.slot_count
    ps, prs = sc.avg_bs_power, sc.avg_relay_power
    slots = np.arange(3 * n).reshape(n, 3)  # (p1, p2, pr) per slot
    nvar = 3 * n + (1 if objective == "min" else 0)
    blocks = [BoxBlock(slots.T.ravel(), 0.0, np.inf, "power nonnegativity")]
    a = np.zeros((2, nvar))
    a[0, slots[:, :2]] = -1.0
    a[1, slots[:, 2]] = -1.0
    blocks.append(LinearBlock(a, np.array([float(n), float(n)]), "energy budget"))
    m1, m2 = np.nonzero(modes == 1)[0], np.nonzero(modes == 2)[0]
    hi = np.concatenate([slots[m1, 1], slots[m2, 0]])  # stronger message per slot
    lo = np.concatenate([slots[m1, 0], slots[m2, 1]])
    if len(hi):
        blocks.append(PairDiffBlock(hi, lo, "decoding order"))

    z0 = np.column_stack([start.p1 / ps, start.p2 / ps, start.pr / prs]).ravel()
    terms = _power_terms(sc, cs, modes, start)
    z, bound, info = _subproblem(
        sc, terms, slots, 2, z0, blocks, objective, "power", diag
    )
    p = z[slots]
    return PowerAllocation(ps * p[:, 0], ps * p[:, 1], prs * p[:, 2]), bound, info


def _traj_step(sc, powers, modes, start_traj, objective: str, diag: Dict):
    """Build and solve one trajectory subproblem around ``start_traj``."""
    n = sc.slot_count
    slots = np.arange(2 * n).reshape(n, 2)  # (x, y) per slot
    xmin, xmax, ymin, ymax = (float(v) for v in sc.flight_box)
    lo = np.concatenate([np.full(n, xmin), np.full(n, ymin)]) / LENGTH_SCALE
    hi = np.concatenate([np.full(n, xmax), np.full(n, ymax)]) / LENGTH_SCALE
    blocks = [
        BoxBlock(slots.T.ravel(), lo, hi, "flight box"),
        VelocityChainBlock(slots, sc.uav_start, sc.uav_end, sc.step_radius),
    ]

    traj = _clamp_into_box(sc, start_traj)
    z0 = traj.ravel() / LENGTH_SCALE
    terms = _traj_terms(sc, channel_state(start_traj, sc), modes, powers)
    z, bound, info = _subproblem(
        sc, terms, slots, 3, z0, blocks, objective, "trajectory", diag
    )
    return LENGTH_SCALE * z[slots], bound, info


def _damped_traj_accept(sc, powers, modes, anchor, cand, objective, diag):
    """Largest damped blend of a trajectory-step optimum that keeps the exact
    objective from falling below its value at the anchor.

    The trajectory bound minorizes the certificate-relaxed rate rather than
    the exact one, so the subproblem optimum can trade exact objective away;
    blending toward the anchor stays feasible (every trajectory constraint
    set is convex) and restores outer monotonicity.
    """

    def value(tr):
        r1, r2 = _exact_rate_arrays(sc, channel_state(tr, sc), modes, powers)
        if objective == "min":
            return float(min(r1.min(), r2.min()))
        return float(r1.sum() + r2.sum())

    base = value(anchor)
    theta = 1.0
    for _ in range(6):
        blend = anchor + theta * (cand - anchor)
        if value(blend) >= base - 1e-12:
            if theta < 1.0:
                diag["damped_traj_steps"] = diag.get("damped_traj_steps", 0) + 1
            return blend
        theta *= 0.5
    diag["rejected_traj_steps"] = diag.get("rejected_traj_steps", 0) + 1
    return anchor.copy()


# ---- drivers ----


def _relative_gain(new, old):
    return (new - old) / max(1.0, abs(old))


def algorithm1_trajectory(sc: Scenario, powers: PowerAllocation, traj0: np.ndarray):
    """Trajectory and mode optimization under fixed powers.

    Returns (trajectory, ModeSchedule, history); each history entry holds the
    bound optimum and the exact sum rate of one iteration.
    """
    traj = np.asarray(traj0, dtype=float)
    diag: Dict = {}
    history: List[Dict] = []
    cs = channel_state(traj, sc)
    sched = mode_schedule(cs, sc)
    if sc.step_radius <= 0.0:
        r1, r2 = _exact_rate_arrays(sc, cs, sched.modes, powers)
        history.append({"bound": None, "exact": float(r1.sum() + r2.sum()), "newton": 0})
        return traj, sched, history
    prev = None
    for _ in range(MAX_OUTER):
        cs = channel_state(traj, sc)
        last_modes = sched.modes
        sched = mode_schedule(cs, sc)
        flips = int(np.sum(sched.modes != last_modes))
        cand, bound, info = _traj_step(sc, powers, sched.modes, traj, "sum", diag)
        traj = _damped_traj_accept(sc, powers, sched.modes, traj, cand, "sum", diag)
        cs = channel_state(traj, sc)
        r1, r2 = _exact_rate_arrays(sc, cs, sched.modes, powers)
        exact = float(r1.sum() + r2.sum())
        history.append({
            "bound": bound, "exact": exact,
            "mode_changes": flips, "newton": info.newton_steps,
        })
        if prev is not None and abs(_relative_gain(exact, prev)) < REL_TOL:
            break
        prev = exact
    bad = _target_violations(sc, channel_state(traj, sc), sched.modes, powers)
    if bad and np.any(np.asarray(sc.rate_targets) > 0):
        raise InfeasibleProblemError(
            f"rate targets unreachable at slots {bad}", slots=bad
        )
    return traj, sched, history


def algorithm2_power(sc: Scenario, traj: np.ndarray, powers0: PowerAllocation):
    """Power optimization under a fixed trajectory and its mode schedule.

    Returns (PowerAllocation, history); history entries record the bound
    optimum, the DC objective, and the exact sum rate per iteration.
    """
    cs = channel_state(traj, sc)
    sched = mode_schedule(cs, sc)
    diag: Dict = {}
    powers = _prepare_power_start(sc, sched.modes, powers0, check=True)
    bad = _target_violations(sc, cs, sched.modes, powers)
    if bad and np.any(np.asarray(sc.rate_targets) > 0):
        raise InfeasibleProblemError(
            f"infeasible start: rate targets violated at slots {bad}", slots=bad
        )
    history: List[Dict] = []
    prev = None
    for _ in range(MAX_OUTER):
        powers, bound, info = _power_step(sc, cs, sched.modes, powers, "sum", diag)
        r1, r2 = _exact_rate_arrays(sc, cs, sched.modes, powers)
        exact = float(r1.sum() + r2.sum())
        history.append({
            "bound": bound,
            "dc": _dc_objective(sc, cs, sched.modes, powers),
            "exact": exact,
            "newton": info.newton_steps,
        })
        if prev is not None and abs(_relative_gain(exact, prev)) < REL_TOL:
            break
        prev = exact
    return powers, history


def solve_minrate(sc: Scenario) -> SolverResult:
    """Fairness problem: maximize the worst per-slot vehicle rate, OMA only."""
    started = time.perf_counter()
    diag: Dict = {}
    traj, powers = feasible_init(sc, "P2")
    powers = _prepare_power_start(sc, np.full(sc.slot_count, 3), powers)
    history: List[Dict] = []
    objective_history: List[float] = []
    newton_steps: List[int] = []
    converged = False
    prev = None
    cs = channel_state(traj, sc)
    sched = _oma_schedule(cs, sc)
    for _ in range(MAX_OUTER):
        steps = 0
        if sc.step_radius > 0.0:
            cand, bound_t, info_t = _traj_step(sc, powers, sched.modes, traj, "min", diag)
            traj = _damped_traj_accept(sc, powers, sched.modes, traj, cand, "min", diag)
            cs = channel_state(traj, sc)
            sched = _oma_schedule(cs, sc)
            steps += info_t.newton_steps
        else:
            bound_t = None
        # the previous optimum sits on its energy budgets to within the
        # barrier's final gap; back it off to a strictly interior start
        powers = _prepare_power_start(sc, sched.modes, powers)
        powers, bound_p, info_p = _power_step(sc, cs, sched.modes, powers, "min", diag)
        steps += info_p.newton_steps
        r1, r2 = _exact_rate_arrays(sc, cs, sched.modes, powers)
        exact = float(min(r1.min(), r2.min()))
        history.append({"bound_traj": bound_t, "bound_power": bound_p, "exact": exact})
        objective_history.append(exact)
        newton_steps.append(steps)
        if prev is not None and abs(_relative_gain(exact, prev)) < REL_TOL:
            converged = True
            break
        prev = exact
    r1, r2 = _exact_rate_arrays(sc, cs, sched.modes, powers)
    diag["rate_spread"] = float(np.max(np.abs(r1 - r2)) / max(r1.min(), r2.min(), 1e-12))
    return SolverResult(
        trajectory=traj,
        powers=powers,
        schedule=sched,
        slots=np.rec.fromarrays([r1, r2], names="r1,r2"),
        objective=float(min(r1.min(), r2.min())),
        objective_history=objective_history,
        history=history,
        newton_steps=newton_steps,
        converged=converged,
        wall_time=time.perf_counter() - started,
        diagnostics=diag,
    )


def algorithm3_joint(sc: Scenario) -> SolverResult:
    """Joint sum-rate optimization: trajectory, modes, and powers."""
    started = time.perf_counter()
    diag: Dict = {}
    traj, powers = feasible_init(sc, "P1")
    history: List[Dict] = []
    objective_history: List[float] = []
    newton_steps: List[int] = []
    converged = False
    frozen = False
    cs = channel_state(traj, sc)
    sched = mode_schedule(cs, sc)
    prev = None
    for _ in range(MAX_OUTER):
        steps = 0
        if sc.step_radius > 0.0:
            cand, bound_t, info_t = _traj_step(sc, powers, sched.modes, traj, "sum", diag)
            traj = _damped_traj_accept(sc, powers, sched.modes, traj, cand, "sum", diag)
            cs = channel_state(traj, sc)
            steps += info_t.newton_steps
        else:
            bound_t = None
        mode_changes = 0
        if not frozen:
            new_sched = mode_schedule(cs, sc)
            mode_changes = int(np.sum(new_sched.modes != sched.modes))
            sched = new_sched
        if np.any(sc.rate_targets > 0):
            # A trajectory move or mode flip can leave a split that misses a
            # target; re-balance so the target rows survive into the barrier.
            # Satisfied slots are left alone: the row slack keeps an exactly
            # on-target start strictly interior.
            powers = _rebalance_for_targets(sc, cs, sched.modes, powers, tol=0.0)
        powers = _prepare_power_start(sc, sched.modes, powers)
        powers, bound_p, info_p = _power_step(sc, cs, sched.modes, powers, "sum", diag)
        steps += info_p.newton_steps
        r1, r2 = _exact_rate_arrays(sc, cs, sched.modes, powers)
        exact = float(r1.sum() + r2.sum())
        history.append({
            "bound_traj": bound_t,
            "bound_power": bound_p,
            "exact": exact,
            "mode_changes": mode_changes,
        })
        objective_history.append(exact)
        newton_steps.append(steps)
        if prev is not None:
            gain = _relative_gain(exact, prev)
            if gain < -1e-9:
                # With damped trajectory steps the exact objective only falls
                # when the mode update (or a target re-balance it forces)
                # changes the slot schedule; freezing the schedule at the
                # first dip stops flip/re-flip limit cycles while the dip
                # itself stays on record.
                diag.setdefault("objective_dips", []).append(
                    {"iteration": len(history) - 1, "drop": prev - exact,
                     "mode_changes": mode_changes}
                )
                frozen = True
            if abs(gain) < REL_TOL:
                converged = True
                break
            if abs(gain) < MODE_FREEZE_TOL:
                frozen = True
        prev = exact
    bad = _target_violations(sc, cs, sched.modes, powers)
    if bad and np.any(np.asarray(sc.rate_targets) > 0):
        raise InfeasibleProblemError(
            f"rate targets unreachable at slots {bad}", slots=bad
        )
    r1, r2 = _exact_rate_arrays(sc, cs, sched.modes, powers)
    return SolverResult(
        trajectory=traj,
        powers=powers,
        schedule=sched,
        slots=np.rec.fromarrays([r1, r2], names="r1,r2"),
        objective=float(np.sum(np.concatenate((r1, r2)))),
        objective_history=objective_history,
        history=history,
        newton_steps=newton_steps,
        converged=converged,
        wall_time=time.perf_counter() - started,
        diagnostics=diag,
    )


def feasible_init(sc: Scenario, problem: str = "P1"):
    """Feasible starting points: straight-line/equal-split for the fairness
    problem, and the fairness solution itself for the sum-rate problem."""
    if problem == "P2":
        traj = initial_trajectory(sc)
        n = sc.slot_count
        powers = PowerAllocation(
            np.full(n, 0.5 * sc.avg_bs_power),
            np.full(n, 0.5 * sc.avg_bs_power),
            np.full(n, sc.avg_relay_power),
        )
        return traj, powers
    if problem != "P1":
        raise ValueError(f"unknown problem {problem!r}")
    res = solve_minrate(sc)
    cs = channel_state(res.trajectory, sc)
    sched = mode_schedule(cs, sc)
    # The fairness powers are balanced for the orthogonal mode; slots the
    # policy flips to superposition need their BS split re-balanced before
    # the per-slot targets hold.
    powers = _rebalance_for_targets(sc, cs, sched.modes, res.powers, tol=0.0)
    return res.trajectory, powers


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
