import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayplan import sca

MODE_K = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
ONES = np.ones(3)  # power bounds over raw powers: unit variable scale
# trajectory geometry: 1e-7 psi per square metre, base station at the
# origin, 100 m flight height, coordinates in metres
GEOMETRY = dict(bs=(0.0, 0.0), s=1e-7, hh=100.0**2, scale=1.0)
VEHICLE = (500.0, 500.0)


def power_bound(mode, k, gains, powers):
    """One slot's power bound in ``mode``, expanded at ``powers``."""
    return sca.power_lb_build(
        np.array([mode]), k, *np.reshape(gains, (3, 1)), *np.reshape(powers, (3, 1)), ONES
    )


def power_rows(bound, powers):
    """Slot 0's row of ``bound`` at each (p1, p2, pr) row of ``powers``."""
    powers = np.atleast_2d(powers)
    return bound.sub(np.zeros(len(powers), int)).local(powers, 0)[0]


def traj_bound(mode, k, powers, psi_l):
    """One slot's trajectory bound in ``mode``, expanded at psi_l = (psi_r, psi_k)."""
    return sca.trajectory_lb_build(
        np.array([mode]), k, *np.reshape(powers, (3, 1)), *np.reshape(psi_l, (2, 1)),
        np.reshape(VEHICLE, (1, 2)), **GEOMETRY
    )


def traj_rows(bound, psi_r, psi_k):
    """Slot 0's row of ``bound``, cm * log2(A), at the given psi values."""
    rows = bound.sub(np.zeros(np.size(psi_r), int))
    with np.errstate(invalid="ignore", divide="ignore"):
        return rows.cm * np.log2(rows.argument(psi_r, psi_k))


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
    b = traj_bound(1, 1, (0.25, 0.25, 0.0), (0.02, 0.03))
    assert b.base[0] == 1.0 and b.dr[0] == 0.0 and b.dk[0] == 0.0
    assert traj_rows(b, 0.5, 0.5)[0] == 0.0
    assert b.local(np.array([[100.0, 700.0]]), 0)[0][0] == 0.0


def test_trajectory_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        traj_bound(1, 1, (0.25, 0.25, 0.5), (-0.01, 0.03))
    for mode in (0, 4):
        with pytest.raises(ValueError):
            traj_bound(mode, 1, (0.25, 0.25, 0.5), (0.02, 0.03))


def test_trajectory_bound_anchor_and_sign():
    q_l = np.array([[300.0, 200.0]])  # the anchor position
    psi_l = (psi_at(q_l, 0.0)[0], psi_at(q_l, VEHICLE)[0])
    for mode, k in MODE_K:
        b = traj_bound(mode, k, (0.3, 0.2, 0.5), psi_l)
        anchor = b.local(q_l, 0)[0][0]
        assert anchor == pytest.approx(
            sca.convexified_rate(mode, k, 0.3, 0.2, 0.5, *psi_l), rel=1e-12
        )
        assert traj_rows(b, *psi_l)[0] == pytest.approx(anchor, rel=1e-12)
        # the linearized SINR is positive at the anchor
        assert b.dr[0] <= 0 and b.dk[0] <= 0 and b.argument(*psi_l)[0] > 1.0
        # worse channels (larger psi) push the bound strictly below the anchor
        assert traj_rows(b, 1.1 * psi_l[0], 1.1 * psi_l[1])[0] < anchor


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
            b = traj_bound(mode, k, p, (pr_, pk_))
            slope = b.cm[0] / (sca.LN2 * b.argument(pr_, pk_)[0])
            assert slope * b.dr[0] == pytest.approx(num_r, rel=1e-6)
            assert slope * b.dk[0] == pytest.approx(num_k, rel=1e-6)


def test_trajectory_bound_minorizes_convexified_rate():
    rng = np.random.default_rng(23)
    worst = np.inf
    for mode, k in MODE_K:
        p1, p2, pr = rng.uniform(0.05, 1.0, 3)
        pr_l, pk_l = rng.uniform(5e-3, 0.2, 2)
        b = traj_bound(mode, k, (p1, p2, pr), (pr_l, pk_l))
        trials = rng.uniform(0.2, 5.0, size=(10_000, 2))
        u, v = pr_l * trials[:, 0], pk_l * trials[:, 1]
        bound = traj_rows(b, u, v)
        ok = np.isfinite(bound)
        target = sca.convexified_rate(mode, k, p1, p2, pr, u[ok], v[ok])
        assert np.all(bound[ok] <= target + 1e-12)
        worst = min(worst, float((target - bound[ok]).min()))
    assert worst >= -1e-12


def test_trajectory_bound_midpoint_concave_in_position():
    rng = np.random.default_rng(29)
    b = traj_bound(1, 2, (0.3, 0.2, 0.5), (0.014, 0.03))
    qa, qb = rng.uniform(0.0, 1000.0, (2, 300, 2))
    rows = b.sub(np.zeros(300, int))
    mid = rows.local(0.5 * (qa + qb), 0)[0]
    ends = 0.5 * (rows.local(qa, 0)[0] + rows.local(qb, 0)[0])
    assert np.all(mid >= ends - 1e-9)


def test_trajectory_bound_off_domain_is_minus_inf():
    b = traj_bound(1, 1, (0.3, 0.2, 0.5), (0.01, 0.01))
    assert b.argument(1e3, 1e3)[0] <= 0.0
    far = np.array([[1e5, 0.0]])  # psi of about 1e3 to both ends
    assert np.all(psi_at(far, 0.0) > 999.0) and np.all(psi_at(far, VEHICLE) > 989.0)
    assert b.local(far, 0)[0][0] == -np.inf


def dc_sum(mode, g_r, g_1, g_2, p1, p2, pr):
    return sum(sca.dc_rate_vehicle(mode, k, g_r, g_1, g_2, p1, p2, pr) for k in (1, 2))


def test_dc_parts_mode3_is_exact():
    rng = np.random.default_rng(31)
    for _ in range(50):
        g_r, g_1, g_2 = rng.uniform(1e2, 1e6, 3)
        p1, p2, pr = rng.uniform(0.05, 1.0, 3)
        exact_sum = sum(
            0.5 * np.log2(1 + pr * g * g_r * p / (pr * g + 2 * p * g_r + 2))
            for g, p in ((g_1, p1), (g_2, p2))
        )
        assert dc_sum(3, g_r, g_1, g_2, p1, p2, pr) == pytest.approx(exact_sum, rel=1e-12)


def test_dc_parts_mode1_exact_when_interference_free():
    g_r, g_1, g_2 = 3e5, 8e5, 2e5
    p1, pr = 0.4, 0.6
    exact = np.log2(1 + pr * g_1 * g_r * p1 / (pr * g_1 + p1 * g_r + 1))
    assert dc_sum(1, g_r, g_1, g_2, p1, 0.0, pr) == pytest.approx(exact, rel=1e-12)


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
    rng = np.random.default_rng(37)
    for mode, k in MODE_K:
        for _ in range(40):
            g_r, g_1, g_2 = rng.uniform(1e2, 1e6, 3)
            p1, p2, pr = rng.uniform(0.05, 1.0, 3)
            b = power_bound(mode, k, (g_r, g_1, g_2), (p1, p2, pr))
            f = lambda a, b, c: sca._subtracted_value(mode, k, g_r, g_1, g_2, a, b, c)
            h = 1e-6
            num = [
                (f(p1 + h, p2, pr) - f(p1 - h, p2, pr)) / (2 * h),
                (f(p1, p2 + h, pr) - f(p1, p2 - h, pr)) / (2 * h),
                (f(p1, p2, pr + h) - f(p1, p2, pr - h)) / (2 * h),
            ]
            assert b.a1[0] == pytest.approx(num[0], rel=1e-5, abs=1e-9)
            assert b.a2[0] == pytest.approx(num[1], rel=1e-5, abs=1e-9)
            assert b.ar[0] == pytest.approx(num[2], rel=1e-5, abs=1e-9)
            assert b.a1[0] >= 0 and b.a2[0] >= 0 and b.ar[0] >= 0
            # the plane touches the subtracted term at the expansion point
            plane = b.t0[0] + b.a1[0] * p1 + b.a2[0] * p2 + b.ar[0] * pr
            assert plane == pytest.approx(f(p1, p2, pr), rel=1e-12)


def test_power_coefficient_structure():
    g = (3e5, 8e5, 2e5)
    p = (0.1, 0.4, 0.5)
    assert power_bound(1, 2, g, p).a2[0] == 0.0  # no p2 term in the subtracted part
    assert power_bound(2, 1, g, p).a1[0] == 0.0
    assert power_bound(3, 1, g, p).a2[0] == 0.0
    # relay link switched off: every coefficient that rides on g_r vanishes
    b = power_bound(1, 1, (0.0, 8e5, 2e5), p)
    assert b.a1[0] == 0.0 and b.a2[0] == 0.0 and b.ar[0] > 0.0


def test_power_bound_rejects_bad_inputs():
    g = (3e5, 8e5, 2e5)
    for mode in (0, 4):
        with pytest.raises(ValueError):
            power_bound(mode, 1, g, (0.25, 0.25, 0.5))
    with pytest.raises(ValueError):
        power_bound(1, 1, g, (0.25, -0.25, 0.5))


def test_power_bound_anchor_and_minorization():
    rng = np.random.default_rng(41)
    for mode, k in MODE_K:
        g = rng.uniform(1e2, 1e6, 3)
        p = rng.uniform(0.05, 1.0, 3)
        b = power_bound(mode, k, g, p)
        anchor = power_rows(b, p)[0]
        assert anchor == pytest.approx(sca.dc_rate_vehicle(mode, k, *g, *p), rel=1e-12)
        trials = rng.uniform(1e-3, 2.0, size=(10_000, 3))
        target = sca.dc_rate_vehicle(mode, k, *g, *trials.T)
        assert np.all(power_rows(b, trials) <= target + 1e-9)


def test_power_bound_midpoint_concave():
    rng = np.random.default_rng(43)
    for mode, k in MODE_K:
        b = power_bound(mode, k, (3e5, 8e5, 2e5), (0.25, 0.25, 0.5))
        pa, pb = rng.uniform(1e-3, 1.5, (2, 200, 3))
        mid = power_rows(b, 0.5 * (pa + pb))
        ends = 0.5 * (power_rows(b, pa) + power_rows(b, pb))
        assert np.all(mid >= ends - 1e-9)


def test_power_bound_separable_factorization_mode3():
    # the concave log argument splits into relay-only and vehicle-only factors
    g_r, g_1, g_2 = 3e5, 8e5, 2e5
    b = power_bound(3, 1, (g_r, g_1, g_2), (0.2, 0.3, 0.5))
    p1, pr = 0.37, 0.61
    whole = (b.cu0[0] + b.cur[0] * pr) * (b.cv0[0] + b.cv1[0] * p1)
    expanded = pr * g_1 * g_r * p1 / 2 * 2 + pr * g_1 + 2 * p1 * g_r + 2
    assert whole == pytest.approx(expanded, rel=1e-12)
    # cross/linear coefficient ratios of the expansion agree (separability)
    assert (g_1 * 2 * g_r) / g_1 == pytest.approx((2 * g_r * b.cu0[0]) / b.cu0[0])


def test_power_bound_off_domain_is_minus_inf():
    b = power_bound(1, 1, (3e5, 8e5, 2e5), (0.25, 0.25, 0.5))
    assert power_rows(b, (-1.0, 0.25, -1.0))[0] == -np.inf


def test_mixed_mode_builds_match_references_and_single_mode_builds():
    """One build over slots in modes 1, 2 and 3: at the anchor every row is its
    reference rate, and every row equals that slot's single-slot build."""
    rng = np.random.default_rng(47)
    modes = np.array([1, 3, 2, 2, 3, 1, 3, 1, 2])
    n = len(modes)
    g = rng.uniform(1e2, 1e6, (3, n))
    p = rng.uniform(0.05, 1.0, (3, n))
    q = rng.uniform(0.0, 1000.0, (n, 2))  # anchor positions
    vehicle = rng.uniform(0.0, 1000.0, (n, 2))
    psi_r = psi_at(q, 0.0)
    psi_k = psi_at(q, vehicle)
    for k in (1, 2):
        pb = sca.power_lb_build(modes, k, *g, *p, ONES)
        tb = sca.trajectory_lb_build(modes, k, *p, psi_r, psi_k, vehicle, **GEOMETRY)
        dc = [sca.dc_rate_vehicle(m, k, *g[:, i], *p[:, i]) for i, m in enumerate(modes)]
        relaxed = [sca.convexified_rate(m, k, *p[:, i], psi_r[i], psi_k[i])
                   for i, m in enumerate(modes)]
        np.testing.assert_allclose(pb.local(p.T, 0)[0], dc, rtol=1e-12)
        np.testing.assert_allclose(tb.local(q, 0)[0], relaxed, rtol=1e-12)
        for i, m in enumerate(modes):
            sl = slice(i, i + 1)
            one_p = sca.power_lb_build(modes[sl], k, *g[:, sl], *p[:, sl], ONES)
            one_t = sca.trajectory_lb_build(
                modes[sl], k, *p[:, sl], psi_r[sl], psi_k[sl], vehicle[sl], **GEOMETRY
            )
            for name in sca.PowerBound.COEFFS:
                assert getattr(one_p, name)[0] == getattr(pb, name)[i], (m, k, name)
            for name in sca.TrajectoryBound.ROWS:
                assert getattr(one_t, name)[0] == getattr(tb, name)[i], (m, k, name)
