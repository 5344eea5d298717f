import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayplan import rates, sca

MODE_K = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
ONES = np.ones(3)  # power bounds over raw powers: unit variable scale
# trajectory geometry: 1e-7 psi per square metre, base station at the
# origin, 100 m flight height, coordinates in metres
GEOMETRY = dict(bs=(0.0, 0.0), s=1e-7, hh=100.0**2, scale=1.0)
VEHICLE = (500.0, 500.0)


def power_bound(mode, gains, powers, n=1):
    """The power bound of n slots in ``mode`` with the same ``gains``,
    expanded at the same ``powers``: vehicle k's rows are (k - 1) * n to
    k * n, so row k - 1 of the one-slot build."""
    tiled = np.tile(np.reshape(np.concatenate([gains, powers]), (6, 1)), n)
    return sca.power_lb_build(np.full(n, mode), *tiled, ONES)


def own_order(p):
    """Both vehicles' power-row variables at slot powers ``p``, one (p1, p2,
    pr) row per slot, as the solver maps them: vehicle 1's rows read (p1,
    p2, pr) and vehicle 2's (p2, p1, pr), each (own, other, relay)."""
    p = np.atleast_2d(p)
    return np.concatenate([p, p[:, [1, 0, 2]]])


def power_rows(mode, k, gains, powers, at):
    """Vehicle k's row of one slot's ``power_bound`` at each (p1, p2, pr)
    row of ``at``, one slot per point."""
    n = len(np.atleast_2d(at))
    vals = power_bound(mode, gains, powers, n).local(own_order(at), 0)[0]
    return vals[(k - 1) * n : k * n]


def traj_bound(mode, powers, psi_l, n=1):
    """The trajectory bound of n slots in ``mode`` at the same ``powers``,
    expanded at psi_l = (psi_r, psi_k) for both vehicles, both at VEHICLE:
    vehicle k's rows are (k - 1) * n to k * n, so row k - 1 of the
    one-slot build."""
    psi_r, psi_k = (np.full(n, v) for v in psi_l)
    vehicle = np.tile(VEHICLE, (n, 1))
    return sca.trajectory_lb_build(
        np.full(n, mode), *np.tile(np.reshape(powers, (3, 1)), n), psi_r, psi_k, psi_k,
        (vehicle, vehicle), **GEOMETRY
    )


def traj_rows(mode, k, powers, psi_l, psi_r, psi_k):
    """Vehicle k's row of one slot's ``traj_bound``, cm * log2(A), at the
    given psi values, one slot per value."""
    psi_r, psi_k = np.broadcast_arrays(np.atleast_1d(psi_r), np.atleast_1d(psi_k))
    n = len(psi_r)
    rows = slice((k - 1) * n, k * n)
    b = traj_bound(mode, powers, psi_l, n)
    with np.errstate(invalid="ignore", divide="ignore"):
        return b.cm[rows] * np.log2(b.argument(np.tile(psi_r, 2), np.tile(psi_k, 2))[rows])


def psi_at(q, centre):
    """The geometry's psi of positions ``q`` (m, 2) towards ``centre``, one
    point or one per position."""
    return GEOMETRY["s"] * (np.sum((np.atleast_2d(q) - centre) ** 2, axis=1) + GEOMETRY["hh"])


def fd_hessian_2d(f, x, y, h=1e-4):
    fxx = (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / h**2
    fyy = (f(x, y + h) - 2 * f(x, y) + f(x, y - h)) / h**2
    fxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4 * h**2)
    return np.array([[fxx, fxy], [fxy, fyy]])


def test_certificate_examples():
    assert sca.convexity_certificate(1.0, 1.0, 1.0, 1.0, (1.0, 1.0))
    assert not sca.convexity_certificate(1.0, 1.0, 1.0, 2.0, (1.0, 1.0))
    # product condition holds but the affine part is negative at the probe
    assert not sca.convexity_certificate(-1.0, -1.0, 1.0, 1.0, (10.0, 0.05))


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(0.1, 10.0),
    b=st.floats(0.1, 10.0),
    c=st.floats(0.1, 10.0),
    x=st.floats(0.1, 5.0),
    y=st.floats(0.1, 5.0),
)
def test_certified_reciprocal_has_psd_hessian(a, b, c, x, y):
    """ab = cd certified instances: 1/(ax+by+cxy+d) is jointly convex."""
    d = a * b / c
    assert sca.convexity_certificate(a, b, c, d, (x, y))
    f = lambda u, v: 1.0 / (a * u + b * v + c * u * v + d)
    eig = np.linalg.eigvalsh(fd_hessian_2d(f, x, y))
    assert eig.min() >= -1e-6


def test_trajectory_bound_zero_power_edge():
    b = traj_bound(1, (0.25, 0.25, 0.0), (0.02, 0.03))
    assert b.base[0] == 1.0 and b.dr[0] == 0.0 and b.dk[0] == 0.0
    assert traj_rows(1, 1, (0.25, 0.25, 0.0), (0.02, 0.03), 0.5, 0.5)[0] == 0.0
    assert b.local(np.array([[100.0, 700.0]] * 2), 0)[0][0] == 0.0


def test_trajectory_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        traj_bound(1, (0.25, 0.25, 0.5), (-0.01, 0.03))
    for mode in (0, 4):
        with pytest.raises(ValueError):
            traj_bound(mode, (0.25, 0.25, 0.5), (0.02, 0.03))
    for powers in ((-0.25, 0.25, 0.5), (0.25, -0.25, 0.5), (0.25, 0.25, -0.5)):
        with pytest.raises(ValueError, match="expansion powers must be nonnegative"):
            traj_bound(1, powers, (0.02, 0.03))


def test_trajectory_bound_anchor_and_sign():
    q_l = np.array([[300.0, 200.0]])  # the anchor position
    psi_l = (psi_at(q_l, 0.0)[0], psi_at(q_l, VEHICLE)[0])
    powers = (0.3, 0.2, 0.5)
    for mode, k in MODE_K:
        b, row = traj_bound(mode, powers, psi_l), k - 1
        anchor = b.local(np.tile(q_l, (2, 1)), 0)[0][row]
        assert anchor == pytest.approx(
            sca.convexified_rate(mode, k, *powers, *psi_l), rel=1e-12
        )
        assert traj_rows(mode, k, powers, psi_l, *psi_l)[0] == pytest.approx(anchor, rel=1e-12)
        # the linearized SINR is positive at the anchor
        assert b.dr[row] <= 0 and b.dk[row] <= 0 and b.argument(*psi_l)[row] > 1.0
        # worse channels (larger psi) push the bound strictly below the anchor
        assert traj_rows(mode, k, powers, psi_l, 1.1 * psi_l[0], 1.1 * psi_l[1])[0] < anchor


def test_trajectory_coefficients_match_finite_differences():
    """Tangency: the row's psi gradient at the anchor, cm * (dr, dk) / (ln2 A),
    equals the finite-difference gradient of the convexified rate."""
    rng = np.random.default_rng(17)
    for mode, k in MODE_K:
        for _ in range(40):
            p = rng.uniform(0.05, 1.0, 3)
            pr_, pk_ = rng.uniform(1e-3, 0.5, 2)
            f = lambda u, v: sca.convexified_rate(mode, k, *p, u, v)
            hr_, hk_ = 1e-6 * pr_, 1e-6 * pk_
            num_r = (f(pr_ + hr_, pk_) - f(pr_ - hr_, pk_)) / (2 * hr_)
            num_k = (f(pr_, pk_ + hk_) - f(pr_, pk_ - hk_)) / (2 * hk_)
            b, row = traj_bound(mode, p, (pr_, pk_)), k - 1
            slope = b.cm[row] / (sca.LN2 * b.argument(pr_, pk_)[row])
            assert slope * b.dr[row] == pytest.approx(num_r, rel=1e-6)
            assert slope * b.dk[row] == pytest.approx(num_k, rel=1e-6)


def test_trajectory_bound_minorizes_convexified_rate():
    rng = np.random.default_rng(23)
    worst = np.inf
    for mode, k in MODE_K:
        p1, p2, pr = rng.uniform(0.05, 1.0, 3)
        pr_l, pk_l = rng.uniform(5e-3, 0.2, 2)
        trials = rng.uniform(0.2, 5.0, size=(10_000, 2))
        u, v = pr_l * trials[:, 0], pk_l * trials[:, 1]
        bound = traj_rows(mode, k, (p1, p2, pr), (pr_l, pk_l), u, v)
        ok = np.isfinite(bound)
        target = sca.convexified_rate(mode, k, p1, p2, pr, u[ok], v[ok])
        assert np.all(bound[ok] <= target + 1e-12)
        worst = min(worst, float((target - bound[ok]).min()))
    assert worst >= -1e-12


def test_trajectory_bound_midpoint_concave_in_position():
    rng = np.random.default_rng(29)
    b = traj_bound(1, (0.3, 0.2, 0.5), (0.014, 0.03), n=300)
    qa, qb = rng.uniform(0.0, 1000.0, (2, 300, 2))

    def rows(q):  # vehicle 2's rows, one position each
        return b.local(np.tile(q, (2, 1)), 0)[0][300:]

    mid = rows(0.5 * (qa + qb))
    ends = 0.5 * (rows(qa) + rows(qb))
    assert np.all(mid >= ends - 1e-9)


def test_trajectory_bound_off_domain_is_minus_inf():
    b = traj_bound(1, (0.3, 0.2, 0.5), (0.01, 0.01))
    assert b.argument(1e3, 1e3)[0] <= 0.0
    far = np.array([[1e5, 0.0]])  # psi of about 1e3 to both ends
    assert np.all(psi_at(far, 0.0) > 999.0) and np.all(psi_at(far, VEHICLE) > 989.0)
    assert b.local(np.tile(far, (2, 1)), 0)[0][0] == -np.inf


def dc_sum(mode, g_r, g_1, g_2, p1, p2, pr):
    return sum(sca.dc_rate_vehicle(mode, k, g_r, g_1, g_2, p1, p2, pr) for k in (1, 2))


@pytest.mark.parametrize("mode, k", MODE_K)
def test_dc_rate_against_exact_rate(mode, k):
    """Vehicle k's DC rate against ``rates.rates_for_mode`` at the normalized
    gains, the exact rate being c_m * log2(N / D): equal in mode 3; for the
    SIC vehicle below it by log2(N / (N - g_r*p_j)), p_j the other vehicle's
    power, so equal when that vehicle is silent; for the interfered vehicle
    above it by log2(D / (D - g_r*p_k)), the dropped interferer term."""
    rng = np.random.default_rng(31)
    sigma2 = 4e-14  # full-band noise power
    g = rng.uniform(1e2, 1e6, (3, 200))  # (g_r, g_1, g_2)
    p1, p2, pr = p = rng.uniform(0.05, 1.0, (3, 200))
    p[2 - k, :20] = 0.0  # the other vehicle silent
    g_r, g_k, p_k, p_j = g[0], g[k], p[k - 1], p[2 - k]
    fac = 2.0 if mode == 3 else 1.0  # OMA gains are over the half-band noise
    exact = rates.rates_for_mode(mode, *(g * sigma2 / fac), *p, sigma2)[k - 1]
    dc = sca.dc_rate_vehicle(mode, k, *g, *p)
    if mode == 3:
        den = pr * g_k + 2 * p_k * g_r + 2
        gap = np.zeros_like(den)
    elif mode == k:  # the SIC vehicle
        den = pr * g_k + (p1 + p2) * g_r + 1
        num = den + pr * g_k * g_r * p_k
        gap = -np.log2(num / (num - g_r * p_j))
    else:
        den = pr * g_k * g_r * p_j + pr * g_k + (p1 + p2) * g_r + 1
        gap = np.log2(den / (den - g_r * p_k))
    c_m = 0.5 if mode == 3 else 1.0
    np.testing.assert_allclose(exact, c_m * np.log2(1 + pr * g_k * g_r * p_k / den), rtol=1e-12)
    np.testing.assert_allclose(dc, exact + gap, rtol=1e-12, atol=1e-12)


def test_dc_gap_characterization_power_ratio_sweep():
    """The dropped interferer term overstates the sum by a bounded amount that
    shrinks as the far vehicle takes more of the power."""
    g_r, g_1, g_2 = 3.0e5, 8.0e5, 2.0e5  # SIC order matches mode 1
    pr = 0.5
    gaps = []
    for ratio in np.linspace(1.0, 20.0, 40):
        p1 = 0.5 / (1 + ratio)
        p2 = 0.5 - p1
        e1 = np.log2(1 + pr * g_1 * g_r * p1 / (pr * g_1 + (p1 + p2) * g_r + 1))
        e2 = np.log2(
            1 + pr * g_2 * g_r * p2 / (pr * g_2 * g_r * p1 + pr * g_2 + (p1 + p2) * g_r + 1)
        )
        gaps.append(dc_sum(1, g_r, g_1, g_2, p1, p2, pr) - (e1 + e2))
    gaps = np.array(gaps)
    assert np.all(gaps >= -1e-9)  # DC overshoots when the SIC order is right
    assert gaps.max() < 0.01  # characterization: tiny at these link budgets


def test_power_coefficients_match_finite_differences():
    """Each row's plane slopes over its (own, other, relay) powers (a, b, r)
    against the subtracted log term of its role's split."""
    rng = np.random.default_rng(37)
    for mode, k in MODE_K:
        for _ in range(40):
            g_r, g_1, g_2 = rng.uniform(1e2, 1e6, 3)
            p1, p2, pr = rng.uniform(0.05, 1.0, 3)
            b, row = power_bound(mode, (g_r, g_1, g_2), (p1, p2, pr)), k - 1
            g_k, a, o = (g_1, p1, p2) if k == 1 else (g_2, p2, p1)
            sub_arg = sca._dc_split(mode == 3, mode == k, g_r, g_k)[1]  # the subtracted argument
            f = lambda a, b, c: sca._log2_and_slopes(sub_arg, a, b, c)[0]
            h = 1e-6
            num = [
                (f(a + h, o, pr) - f(a - h, o, pr)) / (2 * h),
                (f(a, o + h, pr) - f(a, o - h, pr)) / (2 * h),
                (f(a, o, pr + h) - f(a, o, pr - h)) / (2 * h),
            ]
            assert b.t_a[row] == pytest.approx(num[0], rel=1e-5, abs=1e-9)
            assert b.t_b[row] == pytest.approx(num[1], rel=1e-5, abs=1e-9)
            assert b.t_r[row] == pytest.approx(num[2], rel=1e-5, abs=1e-9)
            assert b.t_a[row] >= 0 and b.t_b[row] >= 0 and b.t_r[row] >= 0
            # the plane touches the subtracted term at the expansion point
            plane = b.t0[row] + b.t_a[row] * a + b.t_b[row] * o + b.t_r[row] * pr
            assert plane == pytest.approx(f(a, o, pr), rel=1e-12)


def test_power_coefficient_structure():
    g = (3e5, 8e5, 2e5)
    p = (0.1, 0.4, 0.5)
    # interfered row (mode 1 vehicle 2, mode 2 vehicle 1): no own-power term
    # in the subtracted part
    assert power_bound(1, g, p).t_a[1] == 0.0
    assert power_bound(2, g, p).t_a[0] == 0.0
    # OMA rows: no other-power term
    assert power_bound(3, g, p).t_b[0] == 0.0 and power_bound(3, g, p).t_b[1] == 0.0
    # relay link switched off: every coefficient that rides on g_r vanishes
    b = power_bound(1, (0.0, 8e5, 2e5), p)
    assert b.t_a[0] == 0.0 and b.t_b[0] == 0.0 and b.t_r[0] > 0.0


def test_power_bound_rejects_bad_inputs():
    g = (3e5, 8e5, 2e5)
    for mode in (0, 4):
        with pytest.raises(ValueError):
            power_bound(mode, g, (0.25, 0.25, 0.5))
    with pytest.raises(ValueError):
        power_bound(1, g, (0.25, -0.25, 0.5))


def test_power_bound_anchor_and_minorization():
    rng = np.random.default_rng(41)
    for mode, k in MODE_K:
        g = rng.uniform(1e2, 1e6, 3)
        p = rng.uniform(0.05, 1.0, 3)
        anchor = power_rows(mode, k, g, p, p)[0]
        assert anchor == pytest.approx(sca.dc_rate_vehicle(mode, k, *g, *p), rel=1e-12)
        trials = rng.uniform(1e-3, 2.0, size=(10_000, 3))
        target = sca.dc_rate_vehicle(mode, k, *g, *trials.T)
        assert np.all(power_rows(mode, k, g, p, trials) <= target + 1e-9)


def test_power_bound_midpoint_concave():
    rng = np.random.default_rng(43)
    for mode, k in MODE_K:
        anchor = ((3e5, 8e5, 2e5), (0.25, 0.25, 0.5))
        pa, pb = rng.uniform(1e-3, 1.5, (2, 200, 3))
        mid = power_rows(mode, k, *anchor, 0.5 * (pa + pb))
        ends = 0.5 * (power_rows(mode, k, *anchor, pa) + power_rows(mode, k, *anchor, pb))
        assert np.all(mid >= ends - 1e-9)


def test_power_bound_separable_factorization_mode3():
    # the concave log argument splits into relay-only and vehicle-only factors
    g_r, g_1, g_2 = 3e5, 8e5, 2e5
    b = power_bound(3, (g_r, g_1, g_2), (0.2, 0.3, 0.5))  # vehicle 1: row 0
    p1, pr = 0.37, 0.61
    assert b.cv_b[0] == 0.0  # the vehicle factor reads only its own power
    whole = (b.cu0[0] + b.g_k[0] * pr) * (1.0 + b.g_r[0] * p1)
    expanded = pr * g_1 * g_r * p1 / 2 * 2 + pr * g_1 + 2 * p1 * g_r + 2
    assert whole == pytest.approx(expanded, rel=1e-12)
    # cross/linear coefficient ratios of the expansion agree (separability)
    assert (g_1 * 2 * g_r) / g_1 == pytest.approx((2 * g_r * b.cu0[0]) / b.cu0[0])


def test_power_bound_off_domain_is_minus_inf():
    assert power_rows(1, 1, (3e5, 8e5, 2e5), (0.25, 0.25, 0.5), (-1.0, 0.25, -1.0))[0] == -np.inf


def test_mixed_mode_builds_match_references_and_single_mode_builds():
    """One build over slots in modes 1, 2 and 3 stacks both vehicles' rows,
    vehicle 1's first: at the anchor row (k - 1) * n + i is vehicle k's
    reference rate at slot i, and equals row k - 1 of slot i's single-slot
    build."""
    rng = np.random.default_rng(47)
    modes = np.array([1, 3, 2, 2, 3, 1, 3, 1, 2])
    n = len(modes)
    g = rng.uniform(1e2, 1e6, (3, n))
    p = rng.uniform(0.05, 1.0, (3, n))
    q = rng.uniform(0.0, 1000.0, (n, 2))  # anchor positions
    vehicle = rng.uniform(0.0, 1000.0, (n, 2))
    paths = np.stack([vehicle, vehicle[::-1]])
    psi_r = psi_at(q, 0.0)
    psi = [psi_at(q, path) for path in paths]
    pb = sca.power_lb_build(modes, *g, *p, ONES)
    tb = sca.trajectory_lb_build(modes, *p, psi_r, *psi, paths, **GEOMETRY)
    assert pb.cm.shape == tb.cm.shape == (2 * n,)
    p_rows, t_rows = pb.local(own_order(p.T), 0)[0], tb.local(np.tile(q, (2, 1)), 0)[0]
    for k in (1, 2):
        rows = np.arange(n) + (k - 1) * n
        dc = [sca.dc_rate_vehicle(m, k, *g[:, i], *p[:, i]) for i, m in enumerate(modes)]
        relaxed = [sca.convexified_rate(m, k, *p[:, i], psi_r[i], psi[k - 1][i])
                   for i, m in enumerate(modes)]
        np.testing.assert_allclose(p_rows[rows], dc, rtol=1e-12)
        np.testing.assert_allclose(t_rows[rows], relaxed, rtol=1e-12)
        for i, m in enumerate(modes):
            sl = slice(i, i + 1)
            one_p = sca.power_lb_build(modes[sl], *g[:, sl], *p[:, sl], ONES)
            one_t = sca.trajectory_lb_build(
                modes[sl], *p[:, sl], psi_r[sl], psi[0][sl], psi[1][sl], paths[:, sl],
                **GEOMETRY
            )
            for name in sca.PowerBound.COEFFS:
                assert getattr(one_p, name)[k - 1] == getattr(pb, name)[rows[i]], (m, k, name)
            for name in sca.TrajectoryBound.ROWS:
                assert getattr(one_t, name)[k - 1] == getattr(tb, name)[rows[i]], (m, k, name)


# ---- the local kernels against their whole-array formulas, bit for bit ----


def reference_traj_local(b, v):
    """``TrajectoryBound.local`` at order 2 as whole-array formulas: the
    Hessian is curv I - q da da^T, then times scale^2."""
    x, y = (b.scale * v).T
    a = b.argument(b.s * ((x - b.bx) ** 2 + (y - b.by) ** 2 + b.hh),
                   b.s * ((x - b.vx) ** 2 + (y - b.vy) ** 2 + b.hh))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(a <= 0.0, -np.inf, b.cm * np.log2(a))
    da = 2.0 * b.s * np.column_stack((b.dr * (x - b.bx) + b.dk * (x - b.vx),
                                      b.dr * (y - b.by) + b.dk * (y - b.vy)))
    slope = b.cm / (sca.LN2 * a)
    curv = slope * (2.0 * b.s * (b.dr + b.dk))
    q = b.cm / (sca.LN2 * a * a)
    hess = curv[:, None, None] * np.eye(2) - q[:, None, None] * da[:, :, None] * da[:, None, :]
    return vals, b.scale * slope[:, None] * da, b.scale**2 * hess


def reference_power_grad(b, v):
    """``PowerBound.local``'s gradient as one column_stack, then scaled."""
    a, o, r = (v * b.scale).T
    u, w = b.cu0 + b.g_k * r, 1.0 + b.g_r * a + b.cv_b * o
    gw = b.cm / (sca.LN2 * w)
    return np.column_stack((
        b.g_r * gw - b.cm * b.t_a,
        b.cv_b * gw - b.cm * b.t_b,
        b.g_k * b.cm / (sca.LN2 * u) - b.cm * b.t_r,
    )) * b.scale


@pytest.mark.parametrize("n", [1, 7, 50, 301])
def test_local_kernels_match_whole_array_formulas_bit_for_bit(n):
    rng = np.random.default_rng([53, n])
    modes = rng.integers(1, 4, n)
    p = rng.uniform(0.05, 1.0, (3, n))
    # trajectory rows around anchors in a 1 km square, variables in 100 m
    # units; the last check moves one point far outside the log domain
    geometry = dict(GEOMETRY, scale=100.0)
    q = rng.uniform(0.0, 1000.0, (n, 2))
    paths = rng.uniform(0.0, 1000.0, (2, n, 2))
    tb = sca.trajectory_lb_build(modes, *p, psi_at(q, 0.0), *(psi_at(q, c) for c in paths),
                                 paths, **geometry)
    rows = np.arange(2 * n) % n
    for spread, far in ((0.0, False), (50.0, False), (400.0, True)):
        pos = q[rows] + rng.uniform(-spread, spread, (2 * n, 2))
        if far:
            pos[-1] = (1e5, 0.0)
        got = tb.local(pos / 100.0, 2)
        want = reference_traj_local(tb, pos / 100.0)
        assert np.isneginf(got[0][-1]) if far else np.isfinite(got[0]).all()
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    # power rows over scaled (p1, p2, pr), some trials outside the domain
    scale = np.array([0.5, 0.5, 0.7])
    pb = sca.power_lb_build(modes, *rng.uniform(1e2, 1e6, (3, n)), *p, scale)
    for spread in (0.0, 0.5, 3.0):
        v = own_order(p.T) / scale + rng.uniform(-spread, spread, (2 * n, 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            got, want = pb.local(v, 1)[1], reference_power_grad(pb, v)
        assert np.array_equal(got, want, equal_nan=True)
