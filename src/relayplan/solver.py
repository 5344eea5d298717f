"""Alternating-optimization drivers for trajectory and power planning.

Two decision blocks alternate: the relay track (2N coordinates) and the
transmit powers (3N per-slot values).  One loop serves both problems:
``solve_minrate`` maximizes the worst per-slot rate with every slot
orthogonal, and ``algorithm3_joint`` maximizes the sum rate under the mode
policy, starting from the fairness plan.  Each step linearizes the rate
expressions once (module ``sca``) and solves the resulting concave
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

import contextlib
import dataclasses
import time
from typing import Dict, List, Optional

import numpy as np

from . import rates, sca
from .barrier import AffineRows, LinearBlock, concave_max
from .modes import ModeSchedule, mode_schedule
from .scenario import (
    Scenario,
    channel_state,
    initial_trajectory,
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
    converged: bool  # the outer gain test passed; no subproblem solve failed or capped a stage
    wall_time: float
    diagnostics: Dict


# ---- exact-rate helpers ----


def _exact_rate_arrays(sc, cs, modes, powers):
    return rates.exact_rates(
        modes, cs.h_r, cs.h_1, cs.h_2, powers.p1, powers.p2, powers.pr, sc.noise_power
    )


def _objective_value(objective, r1, r2) -> float:
    """Exact sum rate ("sum") or worst per-slot vehicle rate ("min")."""
    if objective == "min":
        return float(min(r1.min(), r2.min()))
    return float(r1.sum() + r2.sum())


def _target_violations(sc, r1, r2, tol=FEAS_TOL):
    """Slots whose exact rates miss the per-vehicle targets."""
    t1, t2 = float(sc.rate_targets[0]), float(sc.rate_targets[1])
    bad = (r1 < t1 - tol) | (r2 < t2 - tol)
    return [int(i) for i in np.nonzero(bad)[0]]


def _rebalance_for_targets(sc, cs, modes, powers: PowerAllocation) -> PowerAllocation:
    """Per-slot BS split repair so exact rates meet the targets under `modes`.

    At fixed s = p1 + p2 and pr, vehicle k meets its target t_k exactly where
    f_k = S_k - (2^(t_k/c_m) - 1) D_k >= 0 (``rates.sinr_table``), and f_k is
    affine in p1, so its values at the ends of the decoding-order interval
    ([0, s/2] in mode 1, [s/2, s] in mode 2, [0, s] in OMA) give the part
    where the target holds.  The split sits at the midpoint of the two parts'
    intersection; an empty one means no split of the slot's budget meets both
    targets, and is reported as infeasible.
    """
    bad = np.array(_target_violations(sc, *_exact_rate_arrays(sc, cs, modes, powers), tol=0.0), dtype=int)
    if not bad.size:
        return powers
    p1, p2 = powers.p1.copy(), powers.p2.copy()
    stuck = []
    for mode in np.unique(modes[bad]):
        n = bad[modes[bad] == mode]
        s = p1[n] + p2[n]
        lo = 0.5 * s if mode == 2 else np.zeros_like(s)
        hi = 0.5 * s if mode == 1 else s
        ends = np.stack([lo, hi])
        rows = rates.sinr_table(mode, cs.h_r[n], cs.h_1[n], cs.h_2[n], ends, s - ends, powers.pr[n], sc.noise_power)
        need_lo, need_hi = lo, hi
        for (cm, signal, floor), t in zip(rows, sc.rate_targets):
            f_lo, f_hi = signal - np.expm1(rates.LN2 * t / cm) * floor
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = lo + (hi - lo) * f_lo / (f_lo - f_hi)
            need_lo = np.maximum(need_lo, np.where(f_lo >= 0, lo, np.where(f_hi >= 0, cross, np.inf)))
            need_hi = np.minimum(need_hi, np.where(f_hi >= 0, hi, np.where(f_lo >= 0, cross, -np.inf)))
        ok = need_lo <= need_hi
        stuck.extend(n[~ok].tolist())
        p1[n[ok]] = 0.5 * (need_lo[ok] + need_hi[ok])
        p2[n[ok]] = s[ok] - p1[n[ok]]
    if stuck:
        stuck.sort()
        raise InfeasibleProblemError(
            f"no split of the slot budget meets both rate targets at slots {stuck}",
            slots=stuck,
        )
    return PowerAllocation(p1, p2, powers.pr)


# ---- bound-term assembly ----


def _power_terms(sc, cs, modes, anchor: PowerAllocation) -> sca.PowerBound:
    gr, g1, g2 = rates.normalized_gains(modes, sc.noise_power, cs.h_r, cs.h_1, cs.h_2)
    scale = np.array([sc.avg_bs_power, sc.avg_bs_power, sc.avg_relay_power])
    return sca.power_lb_build(modes, gr, g1, g2, anchor.p1, anchor.p2, anchor.pr, scale)


def _traj_terms(sc, cs_l, modes, powers) -> sca.TrajectoryBound:
    return sca.trajectory_lb_build(
        modes, powers.p1, powers.p2, powers.pr, cs_l.psi_r, cs_l.psi_1, cs_l.psi_2,
        vehicle_paths(sc), sc.bs_position, sc.noise_power / sc.beta0,
        sc.uav_height ** 2, LENGTH_SCALE,
    )


# ---- rate rows ----


class SlotRowBlock:
    """Rows row_i(z[slots[i]]) >= 0, less z[epi_idx] if an epigraph scalar is given.

    ``terms.local`` gives each row's value, gradient and Hessian over its
    slot's d variables, whose positions in z are the row of ``slots``; rows
    may share a slot.  An epigraph scalar's position is appended to every
    row's ``cols``.  The last ``local`` result is kept with its z array, so
    a ``RowSubset`` of these rows and the block itself, evaluated at the
    same array, share one call; it never reads the epigraph scalar, which
    is subtracted at every evaluation.
    """

    def __init__(self, terms, slots, label, epi_idx=None):
        self.terms = terms
        self.slots = np.asarray(slots, dtype=int)
        self.epi = epi_idx
        self.count = len(self.slots)
        self.label = label
        self.cols = self.slots
        if epi_idx is not None:
            self.cols = np.column_stack([self.slots, np.full(self.count, epi_idx)])
        self._last = (None, None)  # (z, local(z[slots]))

    def evaluate(self, z):
        if self._last[0] is not z:
            self._last = (z, self.terms.local(z[self.slots]))
        vals, grad, hess = self._last[1]
        if self.epi is not None:
            d = grad.shape[1]
            grad, local = np.empty((self.count, d + 1)), grad
            grad[:, :d] = local
            grad[:, d] = -1.0
            hess, local = np.zeros((self.count, d + 1, d + 1)), hess
            hess[:, :d, :d] = local
            vals = vals - z[self.epi]
        return vals, grad, hess


class RowSubset:
    """Rows ``idx`` of a ``SlotRowBlock`` less ``rhs``, >= 0, read from
    that block's own evaluation at z."""

    def __init__(self, rows: SlotRowBlock, idx, rhs, label="rate target"):
        self.rows, self.idx, self.rhs = rows, idx, rhs
        self.count = len(idx)
        self.cols = rows.cols[idx]
        self.label = label

    def evaluate(self, z):
        vals, grad, hess = self.rows.evaluate(z)
        return vals[self.idx] - self.rhs, grad[self.idx], hess[self.idx]


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

    def _gaps(self, z, start, end):
        q = LENGTH_SCALE * z[self.slots]
        gap = np.empty((self.count, 2))
        gap[0] = q[0] - start
        np.subtract(q[1:], q[:-1], out=gap[1:-1])
        gap[-1] = end - q[-1]
        return gap

    def evaluate(self, z):
        gap = self._gaps(z, self.start, self.end)
        dx, dy = gap.T
        vals = self.r2 - dx * dx - dy * dy
        g = 2.0 * LENGTH_SCALE * gap
        grad = np.empty((self.count, 4))
        grad[:, :2] = self.left * g
        grad[:, 2:] = -self.right * g
        return vals, grad, self.hess

    def max_step(self, z, d, vals):
        """The smallest positive root of c - b alpha - a alpha^2 over the
        rows, with a = |dgap|^2, b = 2 gap . dgap and c the row's value;
        2c / (b + sqrt(b^2 + 4ac)) when b >= 0, and the cancellation-free
        (sqrt(b^2 + 4ac) - b) / 2a otherwise."""
        gap = self._gaps(z, self.start, self.end)
        dgap = self._gaps(d, 0.0, 0.0)
        a = np.einsum("ij,ij->i", dgap, dgap)
        b = 2.0 * np.einsum("ij,ij->i", gap, dgap)
        root = np.sqrt(b * b + 4.0 * a * vals)
        with np.errstate(divide="ignore"):  # a row that d leaves alone has no root
            steps = np.where(b >= 0.0, 2.0 * vals / (b + root), (root - b) / (2.0 * a))
        return float(steps.min())


# ---- start-point preparation ----


def _prepare_power_start(sc, modes, powers):
    """Shift a feasible start strictly inside the power constraint set.

    Boundary-tight budgets are scaled back, decoding-order ties are tilted
    (sum preserved), and exact zeros are floored.
    """
    ps, prs = sc.avg_bs_power, sc.avg_relay_power
    p1, p2, pr = powers.p1.copy(), powers.p2.copy(), powers.pr.copy()
    n = len(p1)
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
    return bound_rows_min - max(1e-9, BACKOFF * abs(bound_rows_min))


# ---- single linearize-and-solve passes ----


def _subproblem(sc, terms, row_slots, width, z0, blocks, objective: str, step: str, diag: Dict):
    """Add both vehicles' rate rows to the fixed ``blocks`` and solve.

    z is slot-major: slot n's d variables fill z[d * n:d * (n + 1)], all of
    z0.  The barrier sees them as a band of ``width`` and at most the
    epigraph scalar as its border.  The 2N rows of ``terms`` are stacked,
    vehicle 1's first, so row i reads slot i mod N, at the positions in z
    of ``row_slots[i]``.  For "sum" the objective is the rows summed, and a
    vehicle's target rows are kept at the slots whose bound clears the
    target at the start; the others are dropped and recorded under
    ``step``.  For "min" an epigraph scalar is appended to z and every row
    must stay above it.  Capped barrier stages, failed solves, the mu
    stages that a warm start skipped, each stage's exit reason and the
    refined Newton directions are counted in ``diag``.  Returns
    (z, bound, info), bound being the subproblem's optimum.
    """
    blocks, band = list(blocks), (len(z0), width)
    if objective == "min":
        # the barrier starts from this array, so it reuses the rows' start
        # evaluation; the epigraph scalar is set once the rows are known
        t_idx = len(z0)
        z0 = np.append(z0, 0.0)
        rows = SlotRowBlock(terms, row_slots, "epigraph rate", epi_idx=t_idx)
    else:
        rows = SlotRowBlock(terms, row_slots, "sum-rate objective")
    start = rows.evaluate(z0)[0]
    if objective == "min":
        z0[t_idx] = _epigraph_start(float(start.min()))
        blocks.append(rows)
        obj = [AffineRows([[t_idx]], 1.0, 0.0, "epigraph objective")]
    else:
        targets = np.repeat(sc.rate_targets, len(row_slots) // 2)
        rhs = targets - TARGET_SLACK
        keep = start - rhs > TARGET_MARGIN
        for k, dropped in enumerate(np.split((targets > 0.0) & ~keep, 2), 1):
            if np.any(dropped):
                diag.setdefault("dropped_target_rows", []).append(
                    {"step": step, "vehicle": k, "slots": np.nonzero(dropped)[0].tolist()}
                )
        idx = np.nonzero((targets > 0.0) & keep)[0]
        if len(idx):
            blocks.append(RowSubset(rows, idx, rhs[idx]))
        obj = [rows]
    z, info = concave_max(obj, blocks, z0, band=band)
    diag["capped_stages"] = diag.get("capped_stages", 0) + info.capped_stages
    diag["failed_solves"] = diag.get("failed_solves", 0) + int(info.line_search_failed)
    diag["skipped_stages"] = diag.get("skipped_stages", 0) + info.skipped_stages
    exits = diag.setdefault("stage_exits", {})
    for reason in info.stage_exits:
        exits[reason] = exits.get(reason, 0) + 1
    diag["refined_directions"] = diag.get("refined_directions", 0) + info.refined_directions
    bound = float(z[-1]) if objective == "min" else float(rows.evaluate(z)[0].sum())
    return z, bound, info


def _power_step(sc, cs, modes, start: PowerAllocation, objective: str, diag: Dict):
    """Build and solve one power subproblem around ``start``."""
    n = sc.slot_count
    ps, prs = sc.avg_bs_power, sc.avg_relay_power
    slots = np.arange(3 * n).reshape(n, 3)  # (p1, p2, pr) per slot
    nvar = 3 * n + (1 if objective == "min" else 0)
    blocks = [AffineRows.box(slots.T.ravel(), 0.0, np.inf, "power nonnegativity")]
    a = np.zeros((2, nvar))
    a[0, slots[:, :2]] = -1.0
    a[1, slots[:, 2]] = -1.0
    blocks.append(LinearBlock(a, np.array([float(n), float(n)]), "energy budget"))
    m1, m2 = np.nonzero(modes == 1)[0], np.nonzero(modes == 2)[0]
    hi = np.concatenate([slots[m1, 1], slots[m2, 0]])  # stronger message per slot
    lo = np.concatenate([slots[m1, 0], slots[m2, 1]])
    if len(hi):
        blocks.append(AffineRows(np.column_stack([hi, lo]), [1.0, -1.0], 0.0, "decoding order"))

    z0 = np.column_stack([start.p1 / ps, start.p2 / ps, start.pr / prs]).ravel()
    terms = _power_terms(sc, cs, modes, start)
    row_slots = np.concatenate([slots, slots[:, [1, 0, 2]]])  # (own, other, relay) power
    z, bound, info = _subproblem(sc, terms, row_slots, 2, z0, blocks, objective, "power", diag)
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
        AffineRows.box(slots.T.ravel(), lo, hi, "flight box"),
        VelocityChainBlock(slots, sc.uav_start, sc.uav_end, sc.step_radius),
    ]

    # the previous optimum sits on its reach circles; blend it towards the
    # straight line (the set is convex) for a strictly interior start
    traj = _clamp_into_box(sc, start_traj)
    z0 = (traj + BACKOFF * (initial_trajectory(sc) - traj)).ravel() / LENGTH_SCALE
    terms = _traj_terms(sc, channel_state(start_traj, sc), modes, powers)
    row_slots = np.concatenate([slots, slots])
    z, bound, info = _subproblem(sc, terms, row_slots, 3, z0, blocks, objective, "trajectory", diag)
    return LENGTH_SCALE * z[slots], bound, info


def _damped_traj_accept(sc, powers, modes, anchor, cand, objective, base, diag):
    """Largest damped blend of a trajectory-step optimum that keeps the exact
    objective from falling below ``base``, its value at the anchor (None to
    compute it here).

    The trajectory bound minorizes the certificate-relaxed rate rather than
    the exact one, so the subproblem optimum can trade exact objective away;
    blending toward the anchor stays feasible (every trajectory constraint
    set is convex) and restores outer monotonicity.
    """

    def value(tr):
        return _objective_value(
            objective, *_exact_rate_arrays(sc, channel_state(tr, sc), modes, powers)
        )

    if base is None:
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


@contextlib.contextmanager
def _timed(phase_s: Dict, phase: str):
    """Add the block's ``perf_counter`` seconds to ``phase_s[phase]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phase_s[phase] = phase_s.get(phase, 0.0) + time.perf_counter() - start


def _alternate(sc: Scenario, objective: str, traj, powers: PowerAllocation,
               started: float, phase_s: Dict) -> SolverResult:
    """The alternating-optimisation loop both problems share.

    Each outer iteration takes one damped trajectory step (none when the
    relay cannot move), re-derives the mode schedule, backs the powers off
    into the interior and takes one power step.  The loop stops once the
    exact objective's relative gain falls below ``REL_TOL``.  "min"
    schedules every slot orthogonally.  "sum" re-balances the powers for
    the rate targets at the start and before each power step, can freeze
    the schedule, and checks the targets on the exact rates of the
    returned plan.
    ``phase_s`` holds the seconds spent so far on each phase; it becomes
    ``diagnostics["phase_s"]``.
    """
    policy = sc if objective == "sum" else dataclasses.replace(sc, mode_threshold=np.inf)
    rebalance = objective == "sum" and np.any(sc.rate_targets > 0)
    diag: Dict = {"phase_s": phase_s}
    for phase in ("trajectory", "power", "modes", "rebalance"):
        phase_s.setdefault(phase, 0.0)
    history: List[Dict] = []
    objective_history: List[float] = []
    newton_steps: List[int] = []
    converged = frozen = False
    with _timed(phase_s, "modes"):
        cs = channel_state(traj, sc)
        sched = mode_schedule(cs, policy)
    if rebalance:
        # the fairness powers suit OMA; slots the policy makes superposed
        # need their BS split re-balanced before the targets hold
        with _timed(phase_s, "rebalance"):
            powers = _rebalance_for_targets(sc, cs, sched.modes, powers)
    prev = None
    for _ in range(MAX_OUTER):
        steps = 0
        bound_t = None
        if sc.step_radius > 0.0:
            with _timed(phase_s, "trajectory"):
                cand, bound_t, info_t = _traj_step(sc, powers, sched.modes, traj, objective, diag)
                # the previous iteration's exact objective was taken at this
                # trajectory, schedule and powers
                traj = _damped_traj_accept(sc, powers, sched.modes, traj, cand, objective, prev, diag)
                cs = channel_state(traj, sc)
            steps += info_t.newton_steps
        mode_changes = 0
        if not frozen:
            with _timed(phase_s, "modes"):
                new_sched = mode_schedule(cs, policy)
            mode_changes = int(np.sum(new_sched.modes != sched.modes))
            sched = new_sched
        if rebalance:
            # A trajectory move or mode flip can leave a split that misses a
            # target; re-balance so the target rows survive into the barrier.
            # Satisfied slots are left alone: the row slack keeps an exactly
            # on-target start strictly interior.
            with _timed(phase_s, "rebalance"):
                powers = _rebalance_for_targets(sc, cs, sched.modes, powers)
        with _timed(phase_s, "power"):
            # the previous optimum sits on its energy budgets to within the
            # barrier's final gap; back it off to a strictly interior start
            powers = _prepare_power_start(sc, sched.modes, powers)
            powers, bound_p, info_p = _power_step(sc, cs, sched.modes, powers, objective, diag)
            r1, r2 = _exact_rate_arrays(sc, cs, sched.modes, powers)
        steps += info_p.newton_steps
        exact = _objective_value(objective, r1, r2)
        history.append({
            "bound_traj": bound_t,
            "bound_power": bound_p,
            "exact": exact,
            "mode_changes": mode_changes,
        })
        objective_history.append(exact)
        newton_steps.append(steps)
        if bound_p - exact > 1e-9 * abs(exact):
            # the power bound should minorize the exact objective at its own
            # optimum; an excess is recorded, not acted on
            diag.setdefault("bound_above_exact", []).append(
                {"iteration": len(history) - 1, "excess": bound_p - exact}
            )
        if prev is not None:
            gain = _relative_gain(exact, prev)
            if objective == "sum":
                # With damped trajectory steps the exact objective falls when
                # the mode update (or a target re-balance it forces) changes
                # the slot schedule, or when the power bound overstates a
                # superposed rate; freezing the schedule at the first dip
                # stops flip/re-flip limit cycles while the dip itself stays
                # on record.
                if gain < -1e-9:
                    diag.setdefault("objective_dips", []).append(
                        {"iteration": len(history) - 1, "drop": prev - exact,
                         "mode_changes": mode_changes}
                    )
                frozen = frozen or gain < -1e-9 or abs(gain) < MODE_FREEZE_TOL
            if abs(gain) < REL_TOL:
                converged = diag["failed_solves"] == diag["capped_stages"] == 0
                break
        prev = exact
    if objective == "sum":
        bad = _target_violations(sc, r1, r2)
        if bad:
            raise InfeasibleProblemError(
                f"rate targets unreachable at slots {bad}", slots=bad
            )
        exact = float(np.sum(np.concatenate((r1, r2))))  # one sum over both vehicles
    else:
        diag["rate_spread"] = float(np.max(np.abs(r1 - r2)) / max(r1.min(), r2.min(), 1e-12))
    return SolverResult(
        trajectory=traj,
        powers=powers,
        schedule=sched,
        slots=np.rec.fromarrays([r1, r2], names="r1,r2"),
        objective=exact,
        objective_history=objective_history,
        history=history,
        newton_steps=newton_steps,
        converged=converged,
        wall_time=time.perf_counter() - started,
        diagnostics=diag,
    )


def solve_minrate(sc: Scenario) -> SolverResult:
    """Fairness problem: maximize the worst per-slot vehicle rate, OMA only."""
    started = time.perf_counter()
    traj, powers = feasible_init(sc)
    powers = _prepare_power_start(sc, np.full(sc.slot_count, 3), powers)
    return _alternate(sc, "min", traj, powers, started, {})


def algorithm3_joint(sc: Scenario) -> SolverResult:
    """Joint sum-rate optimization: trajectory, modes, and powers, started
    from the fairness solution."""
    started = time.perf_counter()
    phase_s: Dict = {}
    with _timed(phase_s, "warm_start"):
        res = solve_minrate(sc)
    return _alternate(sc, "sum", res.trajectory, res.powers, started, phase_s)


def feasible_init(sc: Scenario):
    """The straight-line trajectory with the average powers, the BS power
    split equally between the vehicles."""
    n = sc.slot_count
    powers = PowerAllocation(
        np.full(n, 0.5 * sc.avg_bs_power),
        np.full(n, 0.5 * sc.avg_bs_power),
        np.full(n, sc.avg_relay_power),
    )
    return initial_trajectory(sc), powers

