"""Feasible-start log-barrier method for smooth concave maximization.

maximize f(z)  subject to  g_i(z) >= 0,  i = 1..n_c

with f concave and every g_i concave, both smooth on the interior.  The
barrier stages maximize f(z) + mu * sum_i log g_i(z) by damped Newton steps.
A stage's optimum lies within the duality gap n_c * mu of the optimum of f,
so with scale = max(1, |f(z0)|) mu shrinks by MU_FACTOR per stage down to a
gap of GAP_REL * scale, the last mu clamped up to that floor.  A cold ladder
starts at scale / n_c (five stages).  The first mu is the one whose central
point lies nearest z0 (Boyd & Vandenberghe, Convex Optimization, 11.3.1):
with g_f = grad f, g_b = sum_i grad g_i / g_i and the barrier Hessian
H_b = sum_i (grad g_i grad g_i^T / g_i^2 - hess g_i / g_i) at z0,

    mu* = -(g_f . H_b^-1 g_b) / (g_b . H_b^-1 g_b),

clamped to [scale / (n_c * MU_FACTOR^2), scale / n_c], so a start near
the optimum (a warm start) skips at most two stages and one far from it
runs the cold ladder; a failed H_b solve or a mu* that is not finite and
positive also runs the cold ladder.

Stage stop rules.  Any stage ends when max |grad phi| <= KKT_TOL or when the
squared Newton decrement grad . d is at rounding level,
|grad . d| <= DECREMENT_REL * scale.  Only the last stage sets the final
gap, so a stage before it also ends once it is centred well enough for the
next one to start from, 0 <= grad . d <= CENTRING_THETA * mu (grad . d / mu
is the squared decrement of phi / mu, which is dimensionless; Boyd &
Vandenberghe 11.3-11.5).  A stage that runs MAX_NEWTON_PER_STAGE steps
unstopped is capped.  A slope grad . d below -DECREMENT_REL * scale is a
direction that rounding turned (a near-singular Woodbury column, say), so
one step of iterative refinement, d += solve(grad - (-H) d), is taken
before it is reported as a non-ascent failure.  ``SolveInfo.stage_exits``
names each stage's exit: kkt, decrement, centred, capped or failed.

Line search.  The start must be strictly interior; the backtracking
search halves alpha from 1 and keeps every iterate interior and inside the
objective's own domain (an objective row that is not finite rejects a
trial point, which the search treats as -inf).  A block may give the
largest step that keeps its rows positive in closed form (``max_step``);
a trial beyond the smallest such cap by more than a relative 1e-6 is
certain to be rejected, so it is skipped without an evaluation and counts
as a halving.  The iterates are the same with or without the caps
(Nocedal & Wright, ch. 19, on the largest step to the boundary).

Row protocol.  The objective is a list of row blocks whose rows sum to f,
and every constraint block holds rows g_i.  A point evaluation runs the
constraint blocks in list order, stops at the first with a row that is not
positive, and runs the objective only inside every constraint, so cheap
rows listed first spare a rejected point the costly ones.  Rows do not
depend on mu, so each point (the start, every line-search trial) is
evaluated once, derivatives included, and an accepted trial's rows serve
the next Newton step, a new mu stage and the final KKT check.  A block
sees a point as one z array, which is never changed in place, and gives

    count               number of rows m
    cols                (m, k) positions in z that row i reads, fixed for
                        the solve; None for dense affine rows
    evaluate(z)         (values, grad, hess): values (m,); grad (m, k), row
                        i's gradient over cols[i]; hess (m, k, k) over the
                        same positions, or None for affine rows.  Dense
                        rows give grad (m, n).
    max_step(z, d, vals)  optional, constraint blocks only: the largest
                        alpha with every row positive at z + alpha d, given
                        the rows' values at z; inf when no row decreases.

Newton system.  With w1 = 1, w2 = 0 for objective rows and w1 = mu/g,
w2 = mu/g^2 for constraint rows, each step solves (-H) d = grad for

    -H = sum_i (w2_i grad g_i grad g_i^T - w1_i hess g_i)
       = [[A, B], [B^T, C]] + V V^T.

The caller declares a band (nb, bw): the first nb variables are slotted and
every local entry between two of them lies within bw of the diagonal, so A
is banded.  The other nk variables (the min-rate epigraph scalar) are the
dense border B, C, and each dense affine row (an energy budget) adds the
column sqrt(w2_i) a_i to V.  ``Scatter`` maps every local entry into this
structure once per solve and raises on an entry outside the band, and
one ``bincount`` per step fills the gradient and the system together;
``NewtonSystem.solve`` calls LAPACK directly (a scipy wrapper call costs
more than these small solves): ``pbtrf`` factors A, one ``pbtrs`` solves
[g, V, B], and ``potrf``/``potrs`` eliminate the border through its nk x nk
Schur complement and V through the r x r capacitance matrix I + V^T K^-1 V
(Woodbury).  Assembly and solve cost O(nb * (bw + 1) * (bw + 1 + nk + r))
per step, linear in the slot count, against O(n^2) assembly and an O(n^3)
dense factorisation.  Without a declared band the band spans every variable.

LAPACK binding.  The four routines are this module's ``_PBTRF``,
``_PBTRS``, ``_POTRF`` and ``_POTRS``, bound from ``scipy.linalg`` on the
first Newton solve, or earlier when one of the names is read from outside
the module (PEP 562 ``__getattr__``); a name already set from outside (a
test's spy) is kept.  So importing relayplan does not import scipy, and
the commands that never solve (validate, rates, oracle, highsnr) start
without it.

Generic blocks.  ``LinearBlock`` holds dense affine rows a . z + b, which
enter V; ``AffineRows`` holds sparse affine rows over a few positions each
(a box, decoding-order differences, the epigraph objective), which enter
the band and border like any other local rows.
"""

import dataclasses
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

ARMIJO_C1 = 1e-4
MAX_HALVINGS = 60
KKT_TOL = 1e-6
GAP_REL = 1e-8  # final duality gap n_c * mu, relative to the objective scale
MU_FACTOR = 100.0  # mu shrinks by this factor per stage
DECREMENT_REL = 2e-13  # Newton decrement at rounding level, same scale
CENTRING_THETA = 0.1  # a stage before the last ends once grad . d <= theta * mu
MAX_NEWTON_PER_STAGE = 120
RIDGE_TRIES = 12

_LAPACK = {"_PBTRF": "pbtrf", "_PBTRS": "pbtrs", "_POTRF": "potrf", "_POTRS": "potrs"}
_lapack_bound = False


def _bind_lapack():
    """Bind the LAPACK routines of ``_LAPACK`` that this module does not hold yet."""
    global _lapack_bound
    names = [name for name in _LAPACK if name not in globals()]
    if names:
        from scipy.linalg import get_lapack_funcs

        globals().update(zip(names, get_lapack_funcs([_LAPACK[n] for n in names], dtype=np.float64)))
    _lapack_bound = True


def __getattr__(name):
    """Reading one of the LAPACK names binds them (PEP 562)."""
    if name in _LAPACK:
        _bind_lapack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InfeasibleStartError(ValueError):
    """The provided start violates a constraint or the objective domain."""


# ---- generic constraint blocks ----


class LinearBlock:
    """Rows a_i . z + b_i >= 0 with a dense coefficient matrix."""

    cols = None

    def __init__(self, a, b, label="linear"):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.count = self.a.shape[0]
        self.label = label

    def evaluate(self, z):
        return self.a @ z + self.b, self.a, None

    def max_step(self, z, d, vals):
        """min -g_i / (a_i . d) over the rows that d decreases."""
        ad = self.a @ d
        down = ad < 0.0
        return float(np.min(-vals[down] / ad[down])) if down.any() else np.inf


class AffineRows:
    """Rows sum_j coef[i, j] * z[cols[i, j]] + off[i] >= 0 over a few columns.

    ``coef`` broadcasts to the (m, k) shape of ``cols`` and ``off`` to (m,).
    Column 0's product plus ``off`` comes first, then each further column's
    product in turn, so 1 * z - lo, (1 * z_a + 0) - z_b and 1 * z + 0 are
    z - lo, z_a - z_b and z exactly.
    """

    def __init__(self, cols, coef, off, label):
        self.cols = np.asarray(cols, dtype=int)
        self.count, self.label = len(self.cols), label
        self._grad = np.array(np.broadcast_to(coef, self.cols.shape), dtype=float)
        self._off = np.broadcast_to(np.asarray(off, dtype=float), self.count)
        (self._col0, self._coef0), *self._rest = zip(self.cols.T.copy(), self._grad.T.copy())

    @classmethod
    def box(cls, idx, lo, hi, label="box"):
        """lo_j <= z_j <= hi_j over an index subset: the z - lo rows, then
        the hi - z rows; an infinite bound drops its row."""
        idx = np.asarray(idx, dtype=int)
        lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), idx.shape) for v in (lo, hi))
        keep_lo, keep_hi = np.isfinite(lo), np.isfinite(hi)
        sign = np.repeat([1.0, -1.0], [keep_lo.sum(), keep_hi.sum()])[:, None]
        cols = np.r_[idx[keep_lo], idx[keep_hi]][:, None]
        return cls(cols, sign, np.r_[-lo[keep_lo], hi[keep_hi]], label)

    def evaluate(self, z):
        vals = self._coef0 * z[self._col0] + self._off
        for col, coef in self._rest:
            vals += coef * z[col]
        return vals, self._grad, None


@dataclasses.dataclass
class SolveInfo:
    converged: bool
    stages: int  # length of the mu ladder
    newton_steps: int
    stage_steps: list  # Newton steps per stage run, in ladder order
    stage_exits: list  # why each stage run ended: kkt, decrement, centred, capped, failed
    skipped_stages: int  # cold-ladder stages the centring mu skipped
    refined_directions: int  # Newton directions that took a refinement step
    kkt_residual: float
    mu_final: float
    # set by any failed last stage: a failed factor, a non-ascent direction
    # or an exhausted line search; the solver counts it as failed_solves
    line_search_failed: bool
    message: str = ""

    @property
    def capped_stages(self) -> int:
        """Stages that ran MAX_NEWTON_PER_STAGE steps unstopped."""
        return self.stage_exits.count("capped")


# ---- structured Newton system ----


def _lapack(routine, *args):
    """A LAPACK Cholesky factor or solve in lower form; LinAlgError unless PD."""
    out, info = routine(*args, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine.__name__}")
    return out


def _small_solve(m, b):
    """Solve with a small symmetric matrix; LinAlgError unless it is PD."""
    return _lapack(_POTRS, _lapack(_POTRF, m), b)


class NewtonSystem:
    """-H = [[A, B], [B^T, C]] + V V^T with A banded.

    ``band`` (bw + 1, nb) holds A in LAPACK lower form,
    band[i, j] = A[j + i, j]; ``border`` (nb, nk) holds B, ``corner``
    (nk, nk) C and ``lowrank`` (n, r) V.
    """

    def __init__(self, band, border, corner, lowrank):
        self.band = band
        self.border = border
        self.corner = corner
        self.lowrank = lowrank

    def matvec(self, x):
        """(-H) x."""
        band, nb = self.band, self.band.shape[1]
        xb, xk = x[:nb], x[nb:]
        yb = band[0] * xb + self.border @ xk
        for i in range(1, min(len(band), nb)):  # band[i, j] = A[j + i, j], mirrored above
            yb[i:] += band[i, : nb - i] * xb[: nb - i]
            yb[: nb - i] += band[i, : nb - i] * xb[i:]
        y = np.concatenate([yb, self.border.T @ xb + self.corner @ xk])
        return y + self.lowrank @ (self.lowrank.T @ x)

    def solve(self, g):
        """d with (-H) d = g.  When a factor is not positive definite, a
        ridge starting at 1e-10 * trace/n grows by 100 per try."""
        ridge = 0.0
        for _ in range(RIDGE_TRIES):
            try:
                return self._solve(g, ridge)
            except np.linalg.LinAlgError:
                if ridge:
                    ridge *= 100.0
                    continue
                trace = self.band[0].sum() + np.trace(self.corner) + np.sum(self.lowrank**2)
                ridge = max(float(trace) / len(g), 1e-12) * 1e-10
        raise np.linalg.LinAlgError("Newton system not positive definite despite damping")

    def _solve(self, g, ridge):
        if not _lapack_bound:
            _bind_lapack()
        nb, nk = self.border.shape
        v = self.lowrank
        r = v.shape[1]
        band = self.band
        if ridge:
            band = band.copy()
            band[0] += ridge
        fac = _lapack(_PBTRF, band)  # band is kept intact for a ridge retry
        rhs = np.empty((len(g), 1 + r + nk), order="F")  # [g, V, B], B on the band rows
        rhs[:, 0] = g
        rhs[:, 1 : 1 + r] = v
        rhs[:nb, 1 + r :] = self.border
        sol = _lapack(_PBTRS, fac, rhs[:nb])
        k_inv = sol[:, : 1 + r]  # K^-1 [g, V], K the band with its border
        if nk:
            x = sol[:, 1 + r :]  # A^-1 B
            schur = self.corner - self.border.T @ x
            schur[np.diag_indices(nk)] += ridge
            tail = _small_solve(schur, rhs[nb:, : 1 + r] - self.border.T @ k_inv)
            k_inv = np.vstack([k_inv - x @ tail, tail])
        d = k_inv[:, 0]
        if r:
            cap = np.eye(r) + v.T @ k_inv[:, 1:]
            d = d - k_inv[:, 1:] @ _small_solve(cap, v.T @ d)
        return d


def _accumulate(idx, weights, size):
    if not weights:
        return np.zeros(size)
    return np.bincount(idx, np.concatenate(weights), minlength=size)


class Scatter:
    """Index maps from row blocks' local derivatives into a NewtonSystem.

    Built once per solve from each block's ``cols``.  Only the lower
    triangle is stored, so a local entry above the diagonal maps to a trash
    slot; an entry between two banded variables farther than ``bw`` apart
    raises ValueError.
    """

    def __init__(self, n: int, band: Tuple[int, int], blocks: Sequence):
        nb, bw = band
        nk = n - nb
        self.n, self.nb, self.bw, self.nk = n, nb, bw, nk
        self.off_border = off_border = (bw + 1) * nb
        self.off_corner = off_corner = off_border + nb * nk
        self.trash = off_corner + nk * nk
        self.maps = []
        for blk in blocks:
            if blk.cols is None:
                self.maps.append(None)
                continue
            cols = np.asarray(blk.cols, dtype=int)
            r, c = np.broadcast_arrays(cols[:, :, None], cols[:, None, :])
            idx = np.full(r.shape, self.trash)
            banded = (r >= c) & (r < nb)
            wide = banded & (r - c > bw)
            if np.any(wide):
                i = tuple(np.argwhere(wide)[0])
                raise ValueError(
                    f"{getattr(blk, 'label', 'block')} row {i[0]} couples positions "
                    f"{c[i]} and {r[i]}, outside the band of width {bw}"
                )
            idx[banded] = ((r - c) * nb + c)[banded]
            border = (r >= nb) & (c < nb)
            idx[border] = (off_border + c * nk + r - nb)[border]
            corner = (r >= c) & (c >= nb)
            idx[corner] = (off_corner + (r - nb) * nk + c - nb)[corner]
            self.maps.append((cols.ravel(), idx.ravel()))
        local = [m for m in self.maps if m is not None] or [(np.zeros(0, int),) * 2]
        self.grad_idx, system_idx = (np.concatenate(idx) for idx in zip(*local))
        # the gradient's bins, then the packed system's after them
        self.both_idx = np.concatenate([self.grad_idx, system_idx + n])

    def _gradient_weights(self, evals, w1s):
        weights, dense = [], np.zeros(self.n)
        for m, (_, g, _), w1 in zip(self.maps, evals, w1s):
            if m is None:
                dense += g.T @ (np.ones(len(g)) if w1 is None else w1)
            elif w1 is None:
                weights.append(g.ravel())
            else:
                weights.append((w1[:, None] * g).ravel())
        return weights, dense

    def gradient(self, evals, w1s):
        """sum_i w1_i grad g_i over every block's rows; a block whose w1 is
        None has weight 1 on every row."""
        weights, dense = self._gradient_weights(evals, w1s)
        return _accumulate(self.grad_idx, weights, self.n) + dense

    def newton(self, evals, w1s, w2s) -> Tuple[np.ndarray, NewtonSystem]:
        """(``gradient``, -H) from one ``bincount``, with
        -H = sum_i (w2_i grad g_i grad g_i^T - w1_i hess g_i); a block
        whose w2 is None adds no rank-one terms, and zeros if h is None too.
        Each bin sums the same weights in the same order as a separate
        gradient would."""
        n = self.n
        weights, dense = self._gradient_weights(evals, w1s)
        lowrank = []
        for m, (_, g, h), w1, w2 in zip(self.maps, evals, w1s, w2s):
            if m is None:
                if h is not None:
                    raise ValueError("dense rows must be affine")
                if w2 is not None:
                    lowrank.append(g.T * np.sqrt(w2))
                continue
            neg = None
            if w2 is not None:
                neg = (w2[:, None] * g)[:, :, None] * g[:, None, :]
            if h is not None:
                curv = h if w1 is None else w1[:, None, None] * h
                if neg is None:
                    neg = -curv
                else:
                    neg -= curv
            weights.append(np.zeros(len(m[1])) if neg is None else neg.ravel())
        nb, nk, off_border, off_corner = self.nb, self.nk, self.off_border, self.off_corner
        both = _accumulate(self.both_idx, weights, n + self.trash + 1)
        packed = both[n:]
        corner = packed[off_corner : self.trash].reshape(nk, nk)
        return both[:n] + dense, NewtonSystem(
            packed[:off_border].reshape(self.bw + 1, nb),
            packed[off_border:off_corner].reshape(nb, nk),
            corner + np.tril(corner, -1).T if nk > 1 else corner,
            np.hstack(lowrank) if lowrank else np.zeros((n, 0)),
        )


# ---- barrier method ----


class _Point(NamedTuple):
    """Every block's rows at one z; phi = f_sum + mu * log_sum."""

    obj: list
    rows: list
    f_sum: float
    log_sum: float


def _evaluate_point(objective, blocks, z) -> Optional[_Point]:
    """The point at z; None if z is out of domain, found at the first
    constraint row that is not positive (NaN included) before the objective
    is evaluated, or at an objective row that is not finite (its block's
    sum is then not finite either)."""
    rows, log_sum = [], 0.0
    for blk in blocks:
        e = blk.evaluate(z)
        if not (e[0] > 0).all():
            return None
        rows.append(e)
        log_sum += np.log(e[0]).sum()
    obj, f_sum = [], 0.0
    for src in objective:
        e = src.evaluate(z)
        total = e[0].sum()
        if not np.isfinite(total):
            return None
        obj.append(e)
        f_sum += total
    return _Point(obj, rows, float(f_sum), log_sum)


def _start_error(blocks, z) -> InfeasibleStartError:
    """Why ``_evaluate_point`` rejected the start z."""
    for blk in blocks:
        vals = blk.evaluate(z)[0]
        if not (vals > 0).all():
            bad = int(np.argmin(vals))
            return InfeasibleStartError(
                f"start violates {getattr(blk, 'label', 'constraint')} row {bad} "
                f"(value {vals[bad]:.3e})"
            )
    return InfeasibleStartError("start lies outside the objective domain")


def _gradient(point, mu, scatter):
    """grad of f + mu * sum log g at ``point``."""
    return scatter.gradient(point.obj + point.rows, _weights(point, mu)[0])


def _weights(point, mu):
    """The row weights (w1, w2) = (mu / g, mu / g^2) of the constraint
    rows, after None (weight 1, no rank-one term) for the objective rows."""
    none = [None] * len(point.obj)
    return none + [mu / e[0] for e in point.rows], none + [mu / e[0] ** 2 for e in point.rows]


def _max_step(blocks, point, z, d):
    """The smallest closed-form step cap along d of the blocks that give
    ``max_step``; inf when none does."""
    caps = [blk.max_step(z, d, e[0]) for blk, e in zip(blocks, point.rows)
            if hasattr(blk, "max_step")]
    return min(caps, default=np.inf)


def _ladder(mu, floor):
    """mu, mu / MU_FACTOR, ... down to ``floor``, the last one clamped up
    to it."""
    mus = [mu]
    while mu > floor * (1 + 1e-12):
        mu = max(mu / MU_FACTOR, floor)
        mus.append(mu)
    return mus


def _centring_mu(point, scatter):
    """mu* = -(g_f . H_b^-1 g_b) / (g_b . H_b^-1 g_b) at ``point``, the mu
    that minimizes the H_b^-1 norm of the barrier gradient g_f + mu * g_b
    (module docstring); NaN when the H_b solve fails or g_b . H_b^-1 g_b is
    not positive."""
    evals = point.obj + point.rows
    off = [np.zeros(len(e[0])) for e in point.obj]
    w1 = off + [1.0 / e[0] for e in point.rows]
    w2 = [None] * len(point.obj) + [1.0 / e[0] ** 2 for e in point.rows]
    g_f = _gradient(point, 0.0, scatter)
    g_b, system = scatter.newton(evals, w1, w2)
    try:
        d = system.solve(g_b)
    except np.linalg.LinAlgError:
        return float("nan")
    den = float(g_b @ d)
    return -float(g_f @ d) / den if den > 0 else float("nan")


def concave_max(
    objective: Sequence,
    blocks: Sequence,
    z0: np.ndarray,
    band: Optional[Tuple[int, int]] = None,
) -> Tuple[np.ndarray, SolveInfo]:
    """Maximize the sum of the ``objective`` blocks' rows over the
    constraint ``blocks``, both in the row protocol of this module.

    ``band`` = (nb, bw) declares the first nb variables banded with
    bandwidth bw and the rest dense border; by default the band spans every
    variable.  Returns the final iterate (z0 itself when no step is taken)
    and a SolveInfo, converged when no stage failed and the last one ended
    on a stop test; raises InfeasibleStartError when z0 is not strictly
    interior.  z0 is evaluated as given, so a block that cached its rows at
    that array reuses them.
    """
    z = np.asarray(z0, dtype=float)  # never written into: each step makes a new array
    objective, blocks = list(objective), list(blocks)
    point = _evaluate_point(objective, blocks, z)
    if point is None:
        raise _start_error(blocks, z)
    scale = max(1.0, abs(point.f_sum))
    scatter = Scatter(len(z), band or (len(z), len(z) - 1), objective + blocks)

    n_c = int(sum(blk.count for blk in blocks))
    if n_c == 0:
        mus, skipped = [0.0], 0
    else:
        top, floor = scale / n_c, GAP_REL * scale / n_c
        mu0 = _centring_mu(point, scatter)
        if not 0.0 < mu0 < np.inf:
            mu0 = top
        mus = _ladder(min(top, max(mu0, scale / (n_c * MU_FACTOR**2))), floor)
        skipped = len(_ladder(top, floor)) - len(mus)
    flat = DECREMENT_REL * scale
    stage_steps, exits, refined = [], [], 0
    message = ""
    for stage, mu in enumerate(mus):
        last = stage == len(mus) - 1
        exit_ = "capped"
        stage_steps.append(0)
        for _ in range(MAX_NEWTON_PER_STAGE):
            grad, system = scatter.newton(point.obj + point.rows, *_weights(point, mu))
            if float(np.max(np.abs(grad))) <= KKT_TOL:
                exit_ = "kkt"
                break
            try:
                d = system.solve(grad)
                slope = float(grad @ d)  # the squared Newton decrement
                if slope < -flat:  # rounding turned the direction: refine it once
                    refined += 1
                    d = d + system.solve(grad - system.matvec(d))
                    slope = float(grad @ d)
            except np.linalg.LinAlgError as exc:
                exit_, message = "failed", f"stage {stage}: {exc}"
                break
            if abs(slope) <= flat:
                exit_ = "decrement"
                break
            if slope < 0:
                exit_, message = "failed", f"stage {stage}: non-ascent Newton direction"
                break
            if not last and slope <= CENTRING_THETA * mu:
                exit_ = "centred"
                break
            phi = point.f_sum + mu * point.log_sum
            limit = _max_step(blocks, point, z, d) * (1 + 1e-6)
            alpha = 1.0
            accepted = False
            for _ in range(MAX_HALVINGS):
                if alpha <= limit:  # a longer trial leaves a capped block's rows
                    zt = z + alpha * d  # kept: the blocks' caches know this array
                    trial = _evaluate_point(objective, blocks, zt)
                    if trial is not None and (
                        trial.f_sum + mu * trial.log_sum >= phi + ARMIJO_C1 * alpha * slope
                    ):
                        z, point = zt, trial
                        accepted = True
                        break
                alpha *= 0.5
            stage_steps[-1] += 1
            if not accepted:
                exit_ = "failed"
                message = f"stage {stage}: line search exhausted {MAX_HALVINGS} halvings"
                break
        exits.append(exit_)
        if exit_ == "failed":
            break
    kkt = float(np.max(np.abs(_gradient(point, mus[-1], scatter))))
    info = SolveInfo(
        converged=exits[-1] in ("kkt", "decrement"),
        stages=len(mus),
        newton_steps=sum(stage_steps),
        stage_steps=stage_steps,
        stage_exits=exits,
        skipped_stages=skipped,
        refined_directions=refined,
        kkt_residual=kkt,
        mu_final=mus[-1],
        line_search_failed=exits[-1] == "failed",
        message=message,
    )
    return z, info
