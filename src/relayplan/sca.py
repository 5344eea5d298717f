"""Concave lower bounds for the SCA iterations.

Two families of bounds, one per subproblem:

* Trajectory side: rates are rewritten in psi = sigma^2/h variables; a constant
  is added to each SINR denominator so the reciprocal becomes jointly convex in
  (psi_r, psi_k) — certified by the a*b = c*d condition — and the relaxed SINR
  is then linearized around the previous iterate's psi values.

* Power side: each rate is a difference of two concave log terms in the powers
  (the DC split); linearizing the subtracted term at the previous power
  allocation leaves a concave global lower bound of the DC rate.

Power-side gains must be pre-normalized: g = h/sigma^2 for NOMA modes and
g = 2h/sigma^2 for OMA, which makes the "+1"/"+2" constants in the log
arguments exact.  Every log argument here factors as a product of positive
affine terms, which is what the certificate conditions assert.
"""

import dataclasses

import numpy as np

LN2 = np.log(2.0)


class BoundDomainError(ValueError):
    """A bound was evaluated outside its log domain (step too large)."""


def _log2(x):
    return np.log(x) / LN2


def _log2p1(x):
    return np.log1p(x) / LN2


def convexity_certificate(a, b, c, d, probe) -> bool:
    """Convexity certificate for 1/(a x + b y + c xy + d): a*b == c*d and positivity.

    The product condition makes the denominator factor as (x + b/c)(c y + a)/1
    (up to scaling), so its reciprocal is jointly convex wherever positive.
    """
    x, y = probe
    u = a * x + b * y + c * x * y + d
    prod_gap = abs(a * b - c * d)
    scale = max(abs(a * b), abs(c * d), 1e-300)
    return bool(prod_gap <= 1e-12 * scale) and bool(u > 0)


# ---- trajectory-side bounds (psi variables) ----


@dataclasses.dataclass(frozen=True)
class TrajectoryLB:
    """Linearized relaxed-SINR rate bound around (psi_r_l, psi_k_l)."""

    mode: int
    c_m: float
    d_m: np.ndarray
    gamma_lb: np.ndarray
    d_r: np.ndarray  # d(gamma)/d(psi_r) at the expansion point, <= 0
    d_k: np.ndarray  # d(gamma)/d(psi_k) at the expansion point, <= 0
    psi_r_l: np.ndarray
    psi_k_l: np.ndarray


def trajectory_lb_build(mode, k, p1, p2, pr, psi_r_l, psi_k_l) -> TrajectoryLB:
    """Bound coefficients for vehicle k (1 or 2) in a mode.

    d_m is the reciprocal of the convexified denominator; the convexifying
    constant is (p1+p2)*pr for the NOMA modes and pr*p_k for OMA, and is
    checked against the convexity certificate.
    """
    p1, p2, pr = (np.asarray(v, dtype=float) for v in (p1, p2, pr))
    psi_r_l, psi_k_l = np.asarray(psi_r_l, dtype=float), np.asarray(psi_k_l, dtype=float)
    if np.any(psi_r_l <= 0) or np.any(psi_k_l <= 0):
        raise ValueError("psi expansion values must be positive")
    p_k = p1 if k == 1 else p2
    if mode in (1, 2):
        b_coef = p1 + p2
    elif mode == 3:
        b_coef = p_k
    else:
        raise ValueError(f"invalid mode {mode}")
    a, b, c, d = pr, b_coef, 1.0, pr * b_coef
    lhs, rhs = a * b, c * d
    scale = np.maximum(np.abs(lhs), np.maximum(np.abs(rhs), 1e-300))
    if np.any(np.abs(lhs - rhs) > 1e-12 * scale):
        raise ValueError("convexifying constant failed the certificate")
    den = a * psi_r_l + b * psi_k_l + psi_r_l * psi_k_l + d
    if np.any(den <= 0):
        raise ZeroDivisionError("bound denominator must be positive")
    d_m = 1.0 / den
    gamma_lb = d_m * pr * p_k
    common = d_m * d_m * pr * p_k
    d_r = -common * (pr + psi_k_l)
    d_k = -common * (b_coef + psi_r_l)
    c_m = 0.5 if mode == 3 else 1.0
    return TrajectoryLB(mode, c_m, d_m, gamma_lb, d_r, d_k, psi_r_l, psi_k_l)


def trajectory_lb_rate(lb: TrajectoryLB, psi_r, psi_k):
    """Bound rate c_m * log2(1 + gamma_lb + d_r*dpsi_r + d_k*dpsi_k)."""
    x = lb.gamma_lb + lb.d_r * (psi_r - lb.psi_r_l) + lb.d_k * (psi_k - lb.psi_k_l)
    if np.any(x <= -1.0):
        raise BoundDomainError("trajectory bound log argument is nonpositive")
    return lb.c_m * _log2p1(x)


def convexified_rate(mode, k, p1, p2, pr, psi_r, psi_k):
    """The relaxed rate the trajectory bound minorizes (denominator factored)."""
    p_k = p1 if k == 1 else p2
    b_coef = (p1 + p2) if mode in (1, 2) else p_k
    c_m = 0.5 if mode == 3 else 1.0
    gamma = pr * p_k / ((psi_k + pr) * (psi_r + b_coef))
    return c_m * _log2p1(gamma)


# ---- power-side DC machinery (normalized gains) ----


# Concave/subtracted log-argument descriptors per (mode, k).  The concave
# argument always factors as (cu0 + g_k*pr) * (cv0 + cv1*p1 + cv2*p2); the
# subtracted argument is affine for the SIC vehicle and OMA, and factors the
# same way for the interfered vehicle.
def _concave_factors(mode, k, g_r, g_1, g_2):
    g_k = g_1 if k == 1 else g_2
    if mode in (1, 2):
        cu0 = 1.0
        if (mode, k) in ((1, 1), (2, 2)):
            cv = (1.0, g_r if k == 1 else 0.0, g_r if k == 2 else 0.0)
        else:  # interfered vehicle: argument carries p1 + p2
            cv = (1.0, g_r, g_r)
    elif mode == 3:
        cu0 = 2.0
        cv = (1.0, g_r if k == 1 else 0.0, g_r if k == 2 else 0.0)
    else:
        raise ValueError(f"invalid mode {mode}")
    return cu0, g_k, cv


def _subtracted_value(mode, k, g_r, g_1, g_2, p1, p2, pr):
    """Value of the subtracted (linearized) log term at given powers."""
    s = p1 + p2
    if (mode, k) in ((1, 1), (2, 2)):
        g_k = g_1 if k == 1 else g_2
        return _log2(pr * g_k + s * g_r + 1)
    if (mode, k) == (1, 2):
        return _log2(pr * g_2 * g_r * p1 + pr * g_2 + p1 * g_r + 1)
    if (mode, k) == (2, 1):
        return _log2(pr * g_1 * g_r * p2 + pr * g_1 + p2 * g_r + 1)
    if mode == 3:
        g_k = g_1 if k == 1 else g_2
        p_k = p1 if k == 1 else p2
        return _log2(pr * g_k + 2 * p_k * g_r + 2)
    raise ValueError(f"invalid (mode, k) ({mode}, {k})")


def dc_rate_vehicle(mode, k, g_r, g_1, g_2, p1, p2, pr):
    """Per-vehicle DC rate (the function the power bound minorizes)."""
    cu0, cu_r, cv = _concave_factors(mode, k, g_r, g_1, g_2)
    concave = _log2(cu0 + cu_r * pr) + _log2(cv[0] + cv[1] * p1 + cv[2] * p2)
    c_m = 0.5 if mode == 3 else 1.0
    return c_m * (concave - _subtracted_value(mode, k, g_r, g_1, g_2, p1, p2, pr))


@dataclasses.dataclass(frozen=True)
class PowerLB:
    """Linearized DC rate bound around (p1_l, p2_l, pr_l) for one (mode, k)."""

    mode: int
    k: int
    c_m: float
    cu0: float
    cu_r: np.ndarray  # g_k
    cv0: float
    cv1: np.ndarray
    cv2: np.ndarray
    sub_anchor: np.ndarray  # subtracted log term at the expansion point
    norm: np.ndarray  # ln2 * (subtracted log's argument at the expansion point)
    d: np.ndarray  # Taylor coefficient on (p1 - p1_l)
    t: np.ndarray  # Taylor coefficient on (p2 - p2_l)
    c: np.ndarray  # Taylor coefficient on (pr - pr_l)
    p1_l: np.ndarray
    p2_l: np.ndarray
    pr_l: np.ndarray


def power_lb_build(mode, k, g_r, g_1, g_2, p1_l, p2_l, pr_l) -> PowerLB:
    """Bound coefficients for vehicle k; Taylor terms are the subtracted log's
    exact partial derivatives at the expansion point."""
    g_r, g_1, g_2 = (np.asarray(v, dtype=float) for v in (g_r, g_1, g_2))
    p1_l, p2_l, pr_l = (np.asarray(v, dtype=float) for v in (p1_l, p2_l, pr_l))
    if np.any(p1_l < 0) or np.any(p2_l < 0) or np.any(pr_l < 0):
        raise ValueError("expansion powers must be nonnegative")
    cu0, cu_r, cv = _concave_factors(mode, k, g_r, g_1, g_2)
    _assert_ratio_condition(mode, k, cu0, cu_r, cv, g_r)
    s_l = p1_l + p2_l
    g_k = g_1 if k == 1 else g_2
    if (mode, k) in ((1, 1), (2, 2)):
        norm = LN2 * (pr_l * g_k + s_l * g_r + 1)
        d = LN2 * g_r / norm
        t = LN2 * g_r / norm
        c = LN2 * g_k / norm
    elif (mode, k) == (1, 2):
        norm = LN2 * (pr_l * g_2 * g_r * p1_l + pr_l * g_2 + p1_l * g_r + 1)
        d = LN2 * (pr_l * g_2 * g_r + g_r) / norm
        t = np.zeros_like(norm)
        c = LN2 * (p1_l * g_2 * g_r + g_2) / norm
    elif (mode, k) == (2, 1):
        norm = LN2 * (pr_l * g_1 * g_r * p2_l + pr_l * g_1 + p2_l * g_r + 1)
        d = np.zeros_like(norm)
        t = LN2 * (pr_l * g_1 * g_r + g_r) / norm
        c = LN2 * (p2_l * g_1 * g_r + g_1) / norm
    else:  # mode 3
        p_k = p1_l if k == 1 else p2_l
        norm = LN2 * (pr_l * g_k + 2 * p_k * g_r + 2)
        two_gr = 2 * g_r / norm * LN2
        d = two_gr if k == 1 else np.zeros_like(norm)
        t = two_gr if k == 2 else np.zeros_like(norm)
        c = LN2 * g_k / norm
    # the ln2 factors cancel: coefficients are d(log2 C)/dp = dC/dp / (C ln2)
    d, t, c = d / LN2, t / LN2, c / LN2
    sub_anchor = _subtracted_value(mode, k, g_r, g_1, g_2, p1_l, p2_l, pr_l)
    c_m = 0.5 if mode == 3 else 1.0
    shape = np.broadcast(g_r, p1_l).shape
    return PowerLB(
        mode=mode,
        k=k,
        c_m=c_m,
        cu0=cu0,
        cu_r=np.broadcast_to(cu_r, shape).copy(),
        cv0=cv[0],
        cv1=np.broadcast_to(cv[1], shape).copy(),
        cv2=np.broadcast_to(cv[2], shape).copy(),
        sub_anchor=np.broadcast_to(sub_anchor, shape).copy(),
        norm=np.broadcast_to(norm, shape).copy(),
        d=np.broadcast_to(d, shape).copy(),
        t=np.broadcast_to(t, shape).copy(),
        c=np.broadcast_to(c, shape).copy(),
        p1_l=np.broadcast_to(p1_l, shape).copy(),
        p2_l=np.broadcast_to(p2_l, shape).copy(),
        pr_l=np.broadcast_to(pr_l, shape).copy(),
    )


def _assert_ratio_condition(mode, k, cu0, cu_r, cv, g_r):
    """The concave log argument must satisfy the product-form ratio condition.

    Expanding (cu0 + g_k pr)(cv0 + cv1 p1 + cv2 p2) gives coefficients whose
    cross/linear ratios must match; this is exactly the concavity condition
    for log2 of the argument.
    """
    a = cu_r * (cv[1] + cv[2])  # pr * (p1|p2|s) cross coefficient mass
    c_lin = cu_r * cv[0]
    d_lin = cu0 * (cv[1] + cv[2])
    f0 = cu0 * cv[0]
    lhs = a * f0
    rhs = c_lin * d_lin
    scale = np.maximum(np.abs(lhs), np.maximum(np.abs(rhs), 1e-300))
    if np.any(np.abs(lhs - rhs) > 1e-9 * scale):
        raise ValueError(f"ratio condition failed for mode {mode}, k {k}")


def power_lb_rate(lb: PowerLB, p1, p2, pr):
    """Bound rate: concave log argument minus the linearized subtracted term."""
    u = lb.cu0 + lb.cu_r * pr
    v = lb.cv0 + lb.cv1 * p1 + lb.cv2 * p2
    if np.any(u <= 0) or np.any(v <= 0):
        raise BoundDomainError("power bound log argument is nonpositive")
    concave = _log2(u) + _log2(v)
    taylor = (
        lb.sub_anchor
        + lb.d * (p1 - lb.p1_l)
        + lb.t * (p2 - lb.p2_l)
        + lb.c * (pr - lb.pr_l)
    )
    return lb.c_m * (concave - taylor)
