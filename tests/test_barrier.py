import itertools

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from relayplan import barrier
from relayplan.barrier import AffineRows, LinearBlock, NewtonSystem, Scatter, concave_max
from relayplan.solver import VelocityChainBlock


class Whole:
    """One objective row over all of z, from f(z) returning
    (value, grad, hess), or None off its domain."""

    label = "objective"

    def __init__(self, f, n):
        self.f = f
        self.cols = np.arange(n)[None, :]

    def evaluate(self, z):
        res = self.f(z)
        if res is None:
            return np.array([-np.inf]), None, None
        return np.array([res[0]]), res[1][None, :], res[2][None]


def quadratic(q, lin=None):
    """objective -z'Qz/2 + lin'z as one objective row."""
    q = np.asarray(q, dtype=float)
    lin = np.zeros(q.shape[0]) if lin is None else np.asarray(lin, dtype=float)

    def f(z):
        return -0.5 * z @ q @ z + lin @ z, -q @ z + lin, -q

    return [Whole(f, q.shape[0])]


def linear(lin):
    lin = np.asarray(lin, dtype=float)
    return quadratic(np.zeros((len(lin), len(lin))), lin)


def test_box_quadratic_reaches_origin():
    n = 4
    blocks = [AffineRows.box(np.arange(n), -2.0, 3.0)]
    z, info = concave_max(quadratic(np.eye(n)), blocks, np.full(n, 1.5))
    assert info.converged
    assert np.all(np.abs(z) <= 1e-6)


def test_log_budget_equal_split():
    n, budget = 5, 2.0

    def f(z):
        if np.any(z <= -1):
            return None
        return float(np.sum(np.log1p(z))), 1.0 / (1.0 + z), np.diag(-1.0 / (1.0 + z) ** 2)

    blocks = [
        AffineRows.box(np.arange(n), 0.0, np.inf, label="nonneg"),
        LinearBlock(-np.ones((1, n)), np.array([budget]), label="budget"),
    ]
    z, info = concave_max([Whole(f, n)], blocks, np.full(n, 0.1))
    assert info.converged
    assert np.allclose(z, budget / n, atol=1e-5)


def test_random_qp_against_grid_on_2d_slices():
    rng = np.random.default_rng(19)
    for _ in range(5):
        m = rng.normal(size=(2, 2))
        q = m @ m.T + 0.5 * np.eye(2)
        lin = rng.normal(size=2)
        blocks = [AffineRows.box(np.arange(2), -1.0, 1.0)]
        z, info = concave_max(quadratic(q, lin), blocks, np.zeros(2))
        assert info.converged
        grid = np.linspace(-1, 1, 401)
        xx, yy = np.meshgrid(grid, grid)
        vals = (
            -0.5 * (q[0, 0] * xx**2 + 2 * q[0, 1] * xx * yy + q[1, 1] * yy**2)
            + lin[0] * xx
            + lin[1] * yy
        )
        best = np.unravel_index(np.argmax(vals), vals.shape)
        assert abs(z[0] - grid[best[1]]) <= 2.0 / 400 + 1e-9
        assert abs(z[1] - grid[best[0]]) <= 2.0 / 400 + 1e-9
        assert -0.5 * z @ q @ z + lin @ z >= vals[best] - 1e-6


def test_ball_constraint_projects_along_gradient():
    # one slot hovering at the origin: both gaps keep it within 100 m, one
    # scaled unit, so maximizing x + y lands at (1, 1) / sqrt(2)
    chain = VelocityChainBlock(np.array([[0, 1]]), (0.0, 0.0), (0.0, 0.0), 100.0)
    z, info = concave_max(linear(np.ones(2)), [chain], np.zeros(2), band=(2, 3))
    assert info.converged
    assert np.allclose(z, 1 / np.sqrt(2), atol=1e-4)


def test_infeasible_start_raises_with_block_label():
    blocks = [AffineRows.box(np.arange(2), 0.0, 1.0, label="powers")]
    with pytest.raises(barrier.InfeasibleStartError, match="powers"):
        concave_max(quadratic(np.eye(2)), blocks, np.array([-0.5, 0.5]))
    # on-the-boundary start is not strictly interior either
    with pytest.raises(barrier.InfeasibleStartError):
        concave_max(quadratic(np.eye(2)), blocks, np.array([0.0, 0.5]))


def test_objective_domain_start_rejected():
    def f(z):
        return None

    with pytest.raises(barrier.InfeasibleStartError, match="domain"):
        concave_max([Whole(f, 1)], [AffineRows.box(np.arange(1), -1.0, 1.0)], np.zeros(1))


def test_unconstrained_pure_newton():
    z, info = concave_max(quadratic(np.diag([1.0, 4.0]), np.array([1.0, 2.0])), [], np.zeros(2))
    assert info.converged and info.stages == 1
    assert np.allclose(z, [1.0, 0.5], atol=1e-8)


def test_barrier_stage_schedule_counts():
    n = 3
    blocks = [AffineRows.box(np.arange(n), -1.0, 1.0)]
    n_c = 2 * n
    obj = quadratic(40.0 * np.eye(n), np.array([0.3, 0.0, -0.2]))
    for z0 in (np.zeros(n), np.full(n, 0.5)):
        scale = max(1.0, abs(obj[0].evaluate(z0)[0][0]))  # 1, then about 15
        z, info = concave_max(obj, blocks, z0)
        # mu runs from scale / n_c down by factors of MU_FACTOR to a gap
        # n_c * mu of GAP_REL * scale
        assert info.stages == 1 + round(np.log(1 / barrier.GAP_REL) / np.log(barrier.MU_FACTOR))
        assert info.mu_final == pytest.approx(barrier.GAP_REL * scale / n_c)
        assert info.newton_steps > 0
        assert info.capped_stages == 0


def test_last_stage_lands_on_the_gap_floor(monkeypatch):
    """A GAP_REL that is not a power of MU_FACTOR still ends on a gap of
    exactly GAP_REL * scale: the last mu is clamped up to the floor."""
    monkeypatch.setattr(barrier, "GAP_REL", 3e-9)
    n = 3
    blocks = [AffineRows.box(np.arange(n), -1.0, 1.0)]
    obj = quadratic(40.0 * np.eye(n), np.array([0.3, 0.0, -0.2]))
    for z0 in (np.zeros(n), np.full(n, 0.5)):
        scale = max(1.0, abs(obj[0].evaluate(z0)[0][0]))
        z, info = concave_max(obj, blocks, z0)
        assert info.mu_final == barrier.GAP_REL * scale / (2 * n)
        assert info.stages == 1 + int(np.ceil(np.log(1 / 3e-9) / np.log(barrier.MU_FACTOR)))
        assert info.converged and not info.line_search_failed


def test_box_rows_match_their_formula_bit_for_bit():
    """The three forms the solver builds, each exactly: a box gives z - lo
    and hi - z with the infinite bounds dropped, a difference row
    z[hi] - z[lo] and a one-column row z[t]; gradients are the
    coefficients and there is no Hessian."""
    rng = np.random.default_rng(23)
    for n in (1, 7, 60):
        idx = rng.integers(0, 2 * n, n)
        lo = rng.normal(size=n) * 10.0
        hi = lo + rng.uniform(0.1, 5.0, n)
        lo[rng.random(n) < 0.3] = -np.inf
        hi[rng.random(n) < 0.3] = np.inf
        keep_lo, keep_hi = np.isfinite(lo), np.isfinite(hi)
        sign = np.repeat([1.0, -1.0], [keep_lo.sum(), keep_hi.sum()])
        pair = rng.integers(0, 2 * n, (n, 2))
        t = int(rng.integers(0, 2 * n))
        blocks = [
            (AffineRows.box(idx, lo, hi), sign[:, None],
             lambda z: np.concatenate([z[idx[keep_lo]] - lo[keep_lo], hi[keep_hi] - z[idx[keep_hi]]])),
            (AffineRows(pair, [1.0, -1.0], 0.0, "pair"), np.tile([1.0, -1.0], (n, 1)),
             lambda z: z[pair[:, 0]] - z[pair[:, 1]]),
            (AffineRows([[t]], 1.0, 0.0, "scalar"), np.ones((1, 1)), lambda z: z[[t]]),
        ]
        for _ in range(5):
            z = rng.normal(size=2 * n) * rng.choice([1e-3, 1.0, 1e3])
            for rows, coef, formula in blocks:
                vals, grad, hess = rows.evaluate(z)
                assert np.array_equal(vals, formula(z))
                assert rows.count == len(vals) == len(rows.cols)
                assert np.array_equal(grad, coef) and hess is None


def test_capped_stages_counted(monkeypatch):
    monkeypatch.setattr(barrier, "MAX_NEWTON_PER_STAGE", 1)
    blocks = [AffineRows.box(np.arange(2), -1.0, 1.0)]
    # the optimum (1, -1) sits on two bounds, so every smaller mu moves it
    # and each stage needs a step
    z, info = concave_max(quadratic(np.eye(2), np.array([2.0, -2.0])), blocks, np.zeros(2))
    assert info.newton_steps == info.capped_stages == info.stages
    assert not info.converged


def test_cold_start_runs_the_whole_ladder():
    """From the box's centre the barrier gradient is zero, so the centring
    mu is undefined and the ladder starts at scale / n_c."""
    n = 3
    z, info = concave_max(quadratic(0.1 * np.eye(n), [0.2, 0.03, -0.05]),
                          [AffineRows.box(np.arange(n), -1.0, 1.0)], np.zeros(n))
    assert info.skipped_stages == 0 and info.stages == 5
    assert len(info.stage_steps) == info.stages
    assert sum(info.stage_steps) == info.newton_steps


def test_start_on_the_central_path_begins_at_its_mu():
    """max z s.t. z <= 1 has the central point z = 1 - mu; started at
    mu = 1e-3 the first stage is already centred and needs no step."""
    z, info = concave_max(linear([1.0]), [AffineRows.box([0], -np.inf, 1.0)], np.array([1.0 - 1e-3]))
    assert info.stage_steps[0] == 0
    assert info.stages == 4 and info.skipped_stages == 1  # 1e-3, 1e-5, 1e-7, 1e-8
    assert info.mu_final == barrier.GAP_REL
    assert info.converged and info.capped_stages == 0


def _warm_problem():
    """A quadratic over a box whose upper bound moves from 1 to 1.01, the
    start being the optimum under the old bound (a warm start)."""
    n = 3
    obj = quadratic(0.1 * np.eye(n), [0.2, 0.03, -0.05])
    anchor, _ = concave_max(obj, [AffineRows.box(np.arange(n), -1.0, 1.0)], np.zeros(n))
    return obj, [AffineRows.box(np.arange(n), -1.0, 1.01)], anchor


def test_warm_start_skips_stages_and_lands_on_the_same_gap():
    obj, blocks, anchor = _warm_problem()
    z_cold, cold = concave_max(obj, blocks, np.zeros(3))
    z_warm, warm = concave_max(obj, blocks, anchor)
    assert cold.skipped_stages == 0
    assert 1 <= warm.skipped_stages <= 2
    assert warm.stages == cold.stages - warm.skipped_stages
    assert warm.newton_steps < cold.newton_steps
    assert warm.mu_final == cold.mu_final  # scale is 1 at both starts
    f_cold, f_warm = (obj[0].evaluate(z)[0][0] for z in (z_cold, z_warm))
    assert abs(f_warm - f_cold) <= barrier.GAP_REL
    assert warm.converged and warm.capped_stages == 0


def test_stationary_start_skips_at_most_two_stages():
    """At a solve's own optimum the centring mu lies below the gap floor.
    The first mu is clamped up to scale / (n_c * MU_FACTOR^2), so the solve
    still walks down the last stages instead of starting at the floor."""
    obj, blocks, _ = _warm_problem()
    z_opt, cold = concave_max(obj, blocks, np.zeros(3))
    point = barrier._evaluate_point(obj, blocks, z_opt)
    scatter = Scatter(3, (3, 2), obj + blocks)
    assert 0.0 < barrier._centring_mu(point, scatter) < cold.mu_final
    z, info = concave_max(obj, blocks, z_opt)
    assert info.stages == cold.stages - 2 and info.skipped_stages == 2
    assert info.capped_stages == 0 and info.converged


def test_failed_centring_solve_falls_back_to_the_cold_ladder(monkeypatch):
    obj, blocks, anchor = _warm_problem()
    real_solve, calls = NewtonSystem.solve, []

    def fail_first(self, g):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("forced")
        return real_solve(self, g)

    monkeypatch.setattr(NewtonSystem, "solve", fail_first)
    z, info = concave_max(obj, blocks, anchor)
    assert info.skipped_stages == 0 and info.stages == 5
    assert info.converged and info.capped_stages == 0


def test_unconstrained_solve_has_one_stage():
    z, info = concave_max(quadratic(np.diag([1.0, 4.0]), [1.0, 2.0]), [], np.full(2, 3.0))
    assert info.stages == 1 and info.skipped_stages == 0 and info.mu_final == 0.0
    assert info.stage_steps == [info.newton_steps]
    assert np.allclose(z, [1.0, 0.5], atol=1e-8)


class LogSlots:
    """Rows log(1 + 3 x_i) + y_i - y_i^2 over slot-major (x_i, y_i)."""

    label = "objective"

    def __init__(self, n):
        self.count = n
        self.cols = np.arange(2 * n).reshape(n, 2)

    def evaluate(self, z):
        x, y = z[self.cols].T
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = np.log1p(3.0 * x) + y - y * y
        grad = np.column_stack([3.0 / (1.0 + 3.0 * x), 1.0 - 2.0 * y])
        hess = np.zeros((self.count, 2, 2))
        hess[:, 0, 0] = -9.0 / (1.0 + 3.0 * x) ** 2
        hess[:, 1, 1] = -2.0
        return vals, grad, hess


@pytest.mark.parametrize("n", [3, 30, 300])
def test_accuracy_holds_as_copies_grow(n):
    # each copy maximizes log(1 + 3x) + y - y^2 on the unit square: x = 1 on
    # its bound, y = 1/2 inside, optimum log 4 + 1/4
    obj = [LogSlots(n)]
    blocks = [AffineRows.box(np.arange(2 * n), 0.0, 1.0)]
    z0 = np.full(2 * n, 0.5)
    z, info = concave_max(obj, blocks, z0, band=(2 * n, 1))
    best = n * (np.log(4.0) + 0.25)
    scale = max(1.0, abs(obj[0].evaluate(z0)[0].sum()))
    assert info.converged and info.capped_stages == 0
    assert 0.0 <= best - obj[0].evaluate(z)[0].sum() <= barrier.GAP_REL * scale


def test_domain_rejection_shrinks_steps():
    """A spiky domain hole forces halvings but the solve still lands."""
    calls = {"rejected": 0}

    def f(z):
        if z[0] > 0.6:  # pretend the bound's log argument went nonpositive
            calls["rejected"] += 1
            return None
        return z[0], np.array([1.0]), np.zeros((1, 1))

    blocks = [AffineRows.box(np.array([0]), -1.0, 2.0)]
    z, info = concave_max([Whole(f, 1)], blocks, np.array([0.0]))
    assert z[0] <= 0.6
    assert calls["rejected"] > 0
    assert z[0] == pytest.approx(0.6, abs=1e-3)


def test_box_rejection_skips_the_objective():
    """A trial point that leaves the box is rejected by the box rows before
    the objective is evaluated there: the objective sees interior points
    only."""
    obj = quadratic(np.eye(2), np.full(2, 10.0))  # optimum far outside the box
    box = AffineRows.box(np.arange(2), -1.0, 1.0)
    seen, outside = [], []
    real_obj, real_box = obj[0].evaluate, box.evaluate

    def objective_evaluate(z):
        seen.append(z.copy())
        return real_obj(z)

    def box_evaluate(z):
        res = real_box(z)
        if np.any(res[0] <= 0):
            outside.append(z.copy())
        return res

    obj[0].evaluate, box.evaluate = objective_evaluate, box_evaluate
    z, info = concave_max(obj, [box], np.zeros(2))
    assert info.converged and np.allclose(z, 1.0, atol=1e-6)
    assert outside  # the line search did try points outside the box
    assert seen and all(np.all(np.abs(p) < 1.0) for p in seen)


# ---- stage exits, step caps and refinement ----


def test_intermediate_stages_end_centred(monkeypatch):
    """Every stage before the last ends once grad . d <= CENTRING_THETA * mu;
    the last one still runs to a rounding-level decrement, so the solve
    lands on the same gap as one that centres every stage fully."""
    n = 30
    obj = [LogSlots(n)]
    blocks = [AffineRows.box(np.arange(2 * n), 0.0, 1.0),
              LinearBlock(-np.ones((1, 2 * n)), np.array([1.2 * n]), "budget")]
    z0 = np.full(2 * n, 0.5)
    z, info = concave_max(obj, blocks, z0)
    monkeypatch.setattr(barrier, "CENTRING_THETA", 0.0)
    z_full, full = concave_max(obj, blocks, z0)
    assert info.stage_exits == ["centred"] * (info.stages - 1) + ["decrement"]
    assert "centred" not in full.stage_exits and len(full.stage_exits) == full.stages
    assert info.mu_final == full.mu_final
    assert info.converged and full.converged
    assert info.newton_steps < full.newton_steps
    scale = max(1.0, abs(obj[0].evaluate(z0)[0].sum()))
    f, f_full = (obj[0].evaluate(x)[0].sum() for x in (z, z_full))
    assert abs(f - f_full) <= barrier.GAP_REL * scale


def test_turned_direction_is_refined_not_failed(monkeypatch):
    """A Newton direction whose slope lies below the rounding band takes one
    refinement step, d += solve(grad - (-H) d), before it counts as a
    non-ascent failure.  The first direction is negated here: its residual is
    2 grad, so the refinement restores it and the solve ends as it would
    have.  Negating every solve leaves the refined direction turned too."""
    obj, blocks, _ = _warm_problem()
    z_ref, ref = concave_max(obj, blocks, np.zeros(3))
    real_solve, calls = NewtonSystem.solve, []

    def turn(self, g, every=False):
        calls.append(1)  # call 1 is the centring mu's solve
        d = real_solve(self, g)
        return -d if every or len(calls) == 2 else d

    monkeypatch.setattr(NewtonSystem, "solve", turn)
    z, info = concave_max(obj, blocks, np.zeros(3))
    assert info.refined_directions == 1 and ref.refined_directions == 0
    assert info.converged and info.stage_exits == ref.stage_exits
    assert np.allclose(z, z_ref, rtol=0.0, atol=1e-9)
    monkeypatch.setattr(NewtonSystem, "solve", lambda self, g: turn(self, g, every=True))
    z, info = concave_max(obj, blocks, np.zeros(3))
    assert info.refined_directions == 1 and info.stage_exits == ["failed"]
    assert info.line_search_failed and not info.converged
    assert "non-ascent" in info.message


def _chain_problem(seed, n, reach, d_scale):
    """A reach-circle chain over n slots with z strictly inside every
    circle (the radius is ``reach`` times the longest gap) and a direction."""
    rng = np.random.default_rng(seed)
    start, end = rng.uniform(-100.0, 100.0, (2, 2))
    q = rng.uniform(-100.0, 100.0, (n, 2))
    path = np.vstack([start, q, end])
    radius = reach * np.max(np.hypot(*np.diff(path, axis=0).T))
    chain = VelocityChainBlock(np.arange(2 * n).reshape(n, 2), start, end, radius)
    return chain, q.ravel() / 100.0, d_scale * rng.normal(size=2 * n)


def _linear_problem(seed, n, d_scale):
    """Affine rows a z + b with z strictly inside each and a direction."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n + 1, n))
    z = rng.normal(size=n)
    blk = LinearBlock(a, -a @ z + rng.uniform(0.1, 10.0, n + 1))
    return blk, z, d_scale * rng.normal(size=n)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       reach=st.floats(1.05, 3.0), d_scale=st.sampled_from([1e-3, 1.0, 1e3]),
       kind=st.sampled_from(["chain", "linear"]))
def test_max_step_is_the_largest_step_that_keeps_every_row_positive(seed, n, reach, d_scale, kind):
    blk, z, d = (_chain_problem(seed, n, reach, d_scale) if kind == "chain"
                 else _linear_problem(seed, n, d_scale))
    vals = blk.evaluate(z)[0]
    assert np.all(vals > 0.0)
    cap = blk.max_step(z, d, vals)
    assert cap > 0.0
    if kind == "linear" and np.all(blk.a @ d >= 0.0):
        assert cap == np.inf
        return
    assert np.isfinite(cap)  # a circle's rows all turn once the step is long enough
    assert np.all(blk.evaluate(z + (1 - 1e-9) * cap * d)[0] > 0.0)
    assert np.min(blk.evaluate(z + (1 + 1e-6) * cap * d)[0]) <= 0.0


# ---- the structured Newton solve ----


def random_system(rng, nb, bw, nk, r, lowrank_scale=1.0):
    """A positive definite band-border-low-rank system."""
    band = rng.normal(size=(bw + 1, nb))
    for i in range(1, bw + 1):
        band[i, nb - i :] = 0.0  # past the end of sub-diagonal i
    band[0] = np.abs(band[0]) + 8.0 * bw + 1.0  # diagonally dominant
    border = 0.3 * rng.normal(size=(nb, nk))
    m = rng.normal(size=(nk, nk))
    corner = m @ m.T + (np.sum(border**2) + 1.0) * np.eye(nk)
    lowrank = lowrank_scale * rng.normal(size=(nb + nk, r))
    return NewtonSystem(band, border, corner, lowrank)


def dense_ridge_solve(neg, g, failures=0):
    """The dense schedule: Cholesky of neg + ridge I, the ridge starting at
    1e-10 * trace/n and growing by 100 per failed try; the first
    ``failures`` tries fail whatever the matrix."""
    scale = max(float(np.trace(neg)) / len(g), 1e-12)
    ridge = 0.0
    for k in range(12):
        try:
            if k < failures:
                raise np.linalg.LinAlgError("forced")
            c = np.linalg.cholesky(neg + ridge * np.eye(len(g)))
            return np.linalg.solve(c.T, np.linalg.solve(c, g)), ridge
        except np.linalg.LinAlgError:
            ridge = scale * 1e-10 if ridge == 0.0 else ridge * 100.0
    raise AssertionError("dense schedule found no ridge")


@pytest.mark.parametrize("bw, nk, r", list(itertools.product((2, 3), (0, 1), (0, 2))))
def test_structured_solve_matches_dense(bw, nk, r, dense_system):
    rng = np.random.default_rng([bw, nk, r])
    for nb in (bw + 1, 30):
        system = random_system(rng, nb, bw, nk, r)
        g = rng.normal(size=nb + nk)
        want = np.linalg.solve(dense_system(system), g)
        got = system.solve(g)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("bw, nk, r", [(2, 0, 0), (3, 1, 2), (2, 2, 1)])
def test_matvec_matches_dense(bw, nk, r, dense_system):
    rng = np.random.default_rng([bw, nk, r, 5])
    for nb in (bw, bw + 1, 30):
        system = random_system(rng, nb, bw, nk, r)
        x = rng.normal(size=nb + nk)
        want = dense_system(system) @ x
        assert np.max(np.abs(system.matvec(x) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("nk, r", [(0, 0), (1, 2)])
def test_indefinite_system_follows_ridge_schedule(nk, r, dense_system):
    rng = np.random.default_rng(7 + r)
    system = random_system(rng, 20, 3, nk, r, lowrank_scale=0.1)
    system.band[0, 5] = -30.0
    g = rng.normal(size=20 + nk)
    want, ridge = dense_ridge_solve(dense_system(system), g)
    assert ridge > 0.0
    got = system.solve(g)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("factor", ["schur", "capacitance"])
def test_small_factor_failure_follows_ridge_schedule(factor, dense_system, monkeypatch):
    """The band is positive definite but a small dense factor is not, so the
    solve retries on the dense schedule's ridges.  A negative corner makes
    the Schur complement indefinite.  The capacitance matrix I + V^T K^-1 V
    is positive definite whenever K is, so its failure is injected: potrf
    reports the first capacitance factor not positive definite."""
    rng = np.random.default_rng(11)
    system = random_system(rng, 20, 3, 1, 2, lowrank_scale=0.1)
    assert barrier._PBTRF(system.band, lower=1)[1] == 0
    g = rng.normal(size=21)
    caps, real_potrf = [], barrier._POTRF

    def potrf(m, **kwargs):
        c, info = real_potrf(m, **kwargs)
        if m.shape == (2, 2):
            caps.append(info)
            if factor == "capacitance" and len(caps) == 1:
                info = 1
        return c, info

    monkeypatch.setattr(barrier, "_POTRF", potrf)
    if factor == "schur":
        system.corner -= np.trace(system.corner) + 50.0
    want, ridge = dense_ridge_solve(dense_system(system), g, failures=int(factor == "capacitance"))
    assert ridge > 0.0
    got = system.solve(g)
    assert np.array_equal(got, system._solve(g, ridge))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    if factor == "capacitance":
        assert caps[:2] == [0, 0]  # factored again at the first ridge


def scipy_wrapper_solve(system, g):
    """NewtonSystem's solve at ridge 0 through scipy's checking wrappers."""
    nb, nk = system.border.shape
    v = system.lowrank
    r = v.shape[1]
    fac = sla.cholesky_banded(system.band, lower=True, check_finite=False)
    rhs = np.column_stack([g, v])
    rhs_b = np.hstack([rhs[:nb], system.border])
    sol = sla.cho_solve_banded((fac, True), rhs_b, check_finite=False)
    k_inv = sol[:, : 1 + r]
    if nk:
        x = sol[:, 1 + r :]
        schur = system.corner - system.border.T @ x
        tail = sla.cho_solve((np.linalg.cholesky(schur), True), rhs[nb:] - system.border.T @ k_inv)
        k_inv = np.vstack([k_inv - x @ tail, tail])
    d = k_inv[:, 0]
    if r:
        cap = np.eye(r) + v.T @ k_inv[:, 1:]
        d = d - k_inv[:, 1:] @ sla.cho_solve((np.linalg.cholesky(cap), True), v.T @ d)
    return d


@pytest.mark.parametrize("bw, nk, r", list(itertools.product((2, 3), (0, 1, 2), (0, 2))))
def test_lapack_solve_matches_scipy_wrappers_bit_for_bit(bw, nk, r):
    rng = np.random.default_rng([bw, nk, r, 1])
    for nb in (bw + 1, 30, 90):
        system = random_system(rng, nb, bw, nk, r)
        g = rng.normal(size=nb + nk)
        assert np.array_equal(system.solve(g), scipy_wrapper_solve(system, g))


def test_illegal_lapack_argument_raises():
    fac = barrier._lapack(barrier._PBTRF, np.array([[4.0] * 5, [1.0] * 4 + [0.0]]))
    with pytest.raises(ValueError, match="illegal value"):
        barrier._lapack(barrier._PBTRS, fac, np.ones((3, 1)))  # 3 rows for 5 unknowns


def test_out_of_band_entry_raises():
    with pytest.raises(ValueError, match="outside the band of width 1"):
        concave_max(quadratic(np.eye(3)), [], np.zeros(3), band=(3, 1))
    pair = AffineRows([[1, 0], [0, 2]], [1.0, -1.0], 0.0, "pair")
    with pytest.raises(ValueError, match="pair row 1 couples positions 0 and 2"):
        Scatter(4, (3, 1), [pair])
    # the same entries are legal border couplings or inside a wider band
    Scatter(4, (2, 1), [pair])
    Scatter(4, (3, 2), [pair])


class EdgeRow:
    """One constraint row 1 - z_0 that reads NaN from z_0 = 1 on, as a row
    evaluated past its own domain may."""

    label = "edge"
    count = 1
    cols = np.array([[0]])

    def evaluate(self, z):
        vals = np.array([1.0 - z[0] if z[0] < 1.0 else np.nan])
        return vals, np.array([[-1.0]]), None


def test_nan_constraint_row_is_out_of_domain():
    """A NaN constraint row rejects the start with the row named, and
    rejects a line-search trial before the objective is evaluated there."""
    with pytest.raises(barrier.InfeasibleStartError, match=r"edge row 0 \(value nan\)"):
        concave_max(linear([1.0]), [EdgeRow()], np.array([2.0]))
    obj = linear([1.0])
    seen, real = [], obj[0].evaluate

    def evaluate(z):
        seen.append(z[0])
        return real(z)

    obj[0].evaluate = evaluate
    z, info = concave_max(obj, [EdgeRow()], np.array([0.5]))
    assert info.converged and 1.0 - 1e-6 < z[0] < 1.0
    assert max(seen) < 1.0


class Counted:
    """A block that records the z of each of its evaluations."""

    def __init__(self, blk):
        self.blk, self.calls = blk, []
        self.count, self.cols, self.label = getattr(blk, "count", 1), blk.cols, blk.label

    def evaluate(self, z):
        self.calls.append(z.copy())
        return self.blk.evaluate(z)


def test_each_point_is_evaluated_once(monkeypatch):
    """Every block is evaluated once at the start and once per line-search
    trial.  The accepted trial is the next Newton step's point,
    and neither a new stage nor the final KKT check evaluates z again."""
    n = 3
    obj = [Counted(LogSlots(n))]
    blocks = [
        Counted(AffineRows.box(np.arange(2 * n), 0.0, 1.0)),
        Counted(LinearBlock(-np.ones((1, 2 * n)), np.array([1.2 * n]), "budget")),
    ]
    directions, real_solve = [], NewtonSystem.solve

    def solve(self, g):
        d = real_solve(self, g)
        directions.append((len(blocks[0].calls), d))
        return d

    monkeypatch.setattr(NewtonSystem, "solve", solve)
    z0 = np.full(2 * n, 0.5)
    z, info = concave_max(obj, blocks, z0)
    assert info.converged
    # the first block runs at every point; after the start, each is a trial
    # z + 2^-j d of the latest Newton direction, the last one accepted
    first = blocks[0].calls
    assert np.array_equal(first[0], z0)
    point, trials, steps = z0, 0, 0
    for k, (at, d) in enumerate(directions):
        end = directions[k + 1][0] if k + 1 < len(directions) else len(first)
        for j, trial in enumerate(first[at:end]):
            assert np.array_equal(trial, point + 0.5**j * d)
        if end > at:
            point, trials, steps = first[end - 1], trials + end - at, steps + 1
    assert len(first) == 1 + trials and steps == info.newton_steps
    for blk in obj + blocks:
        assert len({z_.tobytes() for z_ in blk.calls}) == len(blk.calls)
    # the result and its KKT residual are the last accepted point's
    assert np.array_equal(z, point)
    evals = [blk.blk.evaluate(z) for blk in obj + blocks]
    w1 = [np.ones(n)] + [info.mu_final / e[0] for e in evals[1:]]
    grad = Scatter(2 * n, (2 * n, 2 * n - 1), obj + blocks).gradient(evals, w1)
    assert info.kkt_residual == float(np.max(np.abs(grad)))
