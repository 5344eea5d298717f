import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayplan import sca

MODE_K = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


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
    lb = sca.trajectory_lb_build(1, 1, 0.25, 0.25, 0.0, 0.02, 0.03)
    assert lb.gamma_lb == 0.0 and lb.d_r == 0.0 and lb.d_k == 0.0
    assert sca.trajectory_lb_rate(lb, 0.5, 0.5) == 0.0


def test_trajectory_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sca.trajectory_lb_build(1, 1, 0.25, 0.25, 0.5, -0.01, 0.03)
    with pytest.raises(ValueError):
        sca.trajectory_lb_build(4, 1, 0.25, 0.25, 0.5, 0.02, 0.03)


def test_trajectory_bound_anchor_and_sign():
    for mode, k in MODE_K:
        lb = sca.trajectory_lb_build(mode, k, 0.3, 0.2, 0.5, 0.014, 0.03)
        anchor = sca.trajectory_lb_rate(lb, 0.014, 0.03)
        assert anchor == pytest.approx(lb.c_m * np.log2(1 + lb.gamma_lb), rel=1e-12)
        assert anchor == pytest.approx(
            sca.convexified_rate(mode, k, 0.3, 0.2, 0.5, 0.014, 0.03), rel=1e-12
        )
        assert lb.d_r <= 0 and lb.d_k <= 0 and lb.d_m > 0
        # worse channels (larger psi) push the bound strictly below the anchor
        assert sca.trajectory_lb_rate(lb, 0.016, 0.033) < anchor


def test_trajectory_coefficients_match_finite_differences():
    rng = np.random.default_rng(17)
    for mode, k in MODE_K:
        for _ in range(40):
            p1, p2, pr = rng.uniform(0.05, 1.0, 3)
            pr_, pk_ = rng.uniform(1e-3, 0.5, 2)

            def gamma(u, v):
                b = sca.trajectory_lb_build(mode, k, p1, p2, pr, u, v)
                return float(b.gamma_lb)

            hr_, hk_ = 1e-6 * pr_, 1e-6 * pk_
            num_r = (gamma(pr_ + hr_, pk_) - gamma(pr_ - hr_, pk_)) / (2 * hr_)
            num_k = (gamma(pr_, pk_ + hk_) - gamma(pr_, pk_ - hk_)) / (2 * hk_)
            lb = sca.trajectory_lb_build(mode, k, p1, p2, pr, pr_, pk_)
            assert lb.d_r == pytest.approx(num_r, rel=1e-6)
            assert lb.d_k == pytest.approx(num_k, rel=1e-6)


def test_trajectory_bound_minorizes_convexified_rate():
    rng = np.random.default_rng(23)
    worst = np.inf
    for mode, k in MODE_K:
        p1, p2, pr = rng.uniform(0.05, 1.0, 3)
        pr_l, pk_l = rng.uniform(5e-3, 0.2, 2)
        lb = sca.trajectory_lb_build(mode, k, p1, p2, pr, pr_l, pk_l)
        trials = rng.uniform(0.2, 5.0, size=(10_000, 2))
        u, v = pr_l * trials[:, 0], pk_l * trials[:, 1]
        x = lb.gamma_lb + lb.d_r * (u - pr_l) + lb.d_k * (v - pk_l)
        ok = x > -1.0
        bound = lb.c_m * np.log2(1 + x[ok])
        target = sca.convexified_rate(mode, k, p1, p2, pr, u[ok], v[ok])
        assert np.all(bound <= target + 1e-12)
        worst = min(worst, float((target - bound).min()))
    assert worst >= -1e-12


def test_trajectory_bound_midpoint_concave_in_position():
    rng = np.random.default_rng(29)
    scale = 1e-7  # psi per squared meter at the reference-SNR normalization
    lb = sca.trajectory_lb_build(1, 2, 0.3, 0.2, 0.5, 0.014, 0.03)

    def rate_at(q):
        psi_r = scale * (np.sum(q**2) + 100.0**2)
        psi_k = scale * (np.sum((q - 500.0) ** 2) + 100.0**2)
        return sca.trajectory_lb_rate(lb, psi_r, psi_k)

    for _ in range(300):
        qa, qb = rng.uniform(0.0, 1000.0, (2, 2))
        mid = rate_at(0.5 * (qa + qb))
        assert mid >= 0.5 * (rate_at(qa) + rate_at(qb)) - 1e-9


def test_trajectory_bound_domain_violation_raises():
    lb = sca.trajectory_lb_build(1, 1, 0.3, 0.2, 0.5, 0.01, 0.01)
    with pytest.raises(sca.BoundDomainError):
        sca.trajectory_lb_rate(lb, 1e3, 1e3)


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
            lb = sca.power_lb_build(mode, k, g_r, g_1, g_2, p1, p2, pr)
            f = lambda a, b, c: sca._subtracted_value(mode, k, g_r, g_1, g_2, a, b, c)
            h = 1e-6
            num = [
                (f(p1 + h, p2, pr) - f(p1 - h, p2, pr)) / (2 * h),
                (f(p1, p2 + h, pr) - f(p1, p2 - h, pr)) / (2 * h),
                (f(p1, p2, pr + h) - f(p1, p2, pr - h)) / (2 * h),
            ]
            assert float(lb.d) == pytest.approx(num[0], rel=1e-5, abs=1e-9)
            assert float(lb.t) == pytest.approx(num[1], rel=1e-5, abs=1e-9)
            assert float(lb.c) == pytest.approx(num[2], rel=1e-5, abs=1e-9)
            assert lb.norm > 0 and lb.d >= 0 and lb.t >= 0 and lb.c >= 0


def test_power_coefficient_structure():
    g_r, g_1, g_2 = 3e5, 8e5, 2e5
    lb12 = sca.power_lb_build(1, 2, g_r, g_1, g_2, 0.1, 0.4, 0.5)
    assert float(lb12.t) == 0.0  # no p2 term in the subtracted part
    lb21 = sca.power_lb_build(2, 1, g_r, g_1, g_2, 0.1, 0.4, 0.5)
    assert float(lb21.d) == 0.0
    lb31 = sca.power_lb_build(3, 1, g_r, g_1, g_2, 0.1, 0.4, 0.5)
    assert float(lb31.t) == 0.0
    # relay link switched off: every coefficient that rides on g_r vanishes
    lb = sca.power_lb_build(1, 1, 0.0, g_1, g_2, 0.1, 0.4, 0.5)
    assert float(lb.d) == 0.0 and float(lb.t) == 0.0 and float(lb.c) > 0.0


def test_power_bound_anchor_and_minorization():
    rng = np.random.default_rng(41)
    for mode, k in MODE_K:
        g_r, g_1, g_2 = rng.uniform(1e2, 1e6, 3)
        p1, p2, pr = rng.uniform(0.05, 1.0, 3)
        lb = sca.power_lb_build(mode, k, g_r, g_1, g_2, p1, p2, pr)
        anchor = sca.power_lb_rate(lb, p1, p2, pr)
        dc = sca.dc_rate_vehicle(mode, k, g_r, g_1, g_2, p1, p2, pr)
        assert anchor == pytest.approx(dc, rel=1e-12)
        trials = rng.uniform(1e-3, 2.0, size=(10_000, 3))
        bound = sca.power_lb_rate(lb, trials[:, 0], trials[:, 1], trials[:, 2])
        target = sca.dc_rate_vehicle(mode, k, g_r, g_1, g_2, trials[:, 0], trials[:, 1], trials[:, 2])
        assert np.all(bound <= target + 1e-9)


def test_power_bound_midpoint_concave():
    rng = np.random.default_rng(43)
    for mode, k in MODE_K:
        lb = sca.power_lb_build(mode, k, 3e5, 8e5, 2e5, 0.25, 0.25, 0.5)
        for _ in range(200):
            pa, pb = rng.uniform(1e-3, 1.5, (2, 3))
            mid = sca.power_lb_rate(lb, *(0.5 * (pa + pb)))
            ends = 0.5 * (sca.power_lb_rate(lb, *pa) + sca.power_lb_rate(lb, *pb))
            assert mid >= ends - 1e-9


def test_power_bound_separable_factorization_mode3():
    # the concave log argument splits into relay-only and vehicle-only factors
    g_r, g_1, g_2 = 3e5, 8e5, 2e5
    lb = sca.power_lb_build(3, 1, g_r, g_1, g_2, 0.2, 0.3, 0.5)
    p1, pr = 0.37, 0.61
    whole = (lb.cu0 + lb.cu_r * pr) * (lb.cv0 + lb.cv1 * p1)
    expanded = pr * g_1 * g_r * p1 / 2 * 2 + pr * g_1 + 2 * p1 * g_r + 2
    assert whole == pytest.approx(expanded, rel=1e-12)
    # cross/linear coefficient ratios of the expansion agree (separability)
    assert (g_1 * 2 * g_r) / g_1 == pytest.approx((2 * g_r * lb.cu0) / lb.cu0)


def test_power_bound_domain_violation_raises():
    lb = sca.power_lb_build(1, 1, 3e5, 8e5, 2e5, 0.25, 0.25, 0.5)
    with pytest.raises(sca.BoundDomainError):
        sca.power_lb_rate(lb, -1.0, 0.25, -1.0)
