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

Each side has one bound type, ``TrajectoryBound`` and ``PowerBound``: one row
per slot, each in its slot's mode, whose ``local`` gives the values,
gradients and Hessians the barrier maximizes.  A row evaluates to -inf off
its log domain.  ``convexified_rate`` and ``dc_rate_vehicle`` are the
functions the two bounds minorize.
"""

import numpy as np

LN2 = np.log(2.0)


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


def _check_modes(modes) -> np.ndarray:
    """The per-slot mode array, every entry checked to be 1, 2 or 3."""
    modes = np.asarray(modes)
    bad = modes[(modes != 1) & (modes != 2) & (modes != 3)]
    if bad.size:
        raise ValueError(f"invalid mode {bad[0]}")
    return modes


# ---- trajectory-side bounds (psi variables) ----


class TrajectoryBound:
    """Per-slot rows of one vehicle's trajectory-side bound.

    Row n evaluates to cm * log2(A) with
        A = base + dr * psi_r(x, y) + dk * psi_k(x, y),
    psi being the inverse-gain distance quadratics s * (|q - c|^2 + hh) to
    the base station c = (bx, by) and to the vehicle's slot-n position
    c = (vx, vy).  dr, dk <= 0 keep A concave, so the row is concave in the
    coordinates.  A slot's variables are its (x, y) divided by ``scale``.
    """

    ROWS = ("cm", "base", "dr", "dk", "vx", "vy")
    __slots__ = ROWS + ("s", "bx", "by", "hh", "scale")

    def __init__(self, n, s, bx, by, hh, scale):
        for name in self.ROWS:
            setattr(self, name, np.zeros(n))
        self.s, self.bx, self.by, self.hh, self.scale = s, bx, by, hh, scale

    def sub(self, idx) -> "TrajectoryBound":
        """The rows at ``idx``, which may repeat a slot."""
        out = TrajectoryBound(0, self.s, self.bx, self.by, self.hh, self.scale)
        for name in self.ROWS:
            setattr(out, name, getattr(self, name)[idx])
        return out

    def argument(self, psi_r, psi_k):
        """A at the rows' psi values."""
        return self.base + self.dr * psi_r + self.dk * psi_k

    def local(self, v, order):
        """(values, grad, hess): row values (-inf where A <= 0), with
        ``order`` >= 1 the (m, 2) gradients and with ``order`` 2 the
        (m, 2, 2) Hessians over the scaled slot coordinates ``v``; None
        beyond ``order``."""
        x, y = (self.scale * v).T
        a = self.argument(
            self.s * ((x - self.bx) ** 2 + (y - self.by) ** 2 + self.hh),
            self.s * ((x - self.vx) ** 2 + (y - self.vy) ** 2 + self.hh),
        )
        bad = a <= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(bad, -np.inf, self.cm * np.log2(a))
        if order == 0:
            return vals, None, None
        da = 2.0 * self.s * np.column_stack((
            self.dr * (x - self.bx) + self.dk * (x - self.vx),
            self.dr * (y - self.by) + self.dk * (y - self.vy),
        ))
        slope = self.cm / (LN2 * a)
        grad = self.scale * slope[:, None] * da
        if order == 1:
            return vals, grad, None
        # A's Hessian is 2 s (dr + dk) I
        curv = slope * (2.0 * self.s * (self.dr + self.dk))
        q = self.cm / (LN2 * a * a)
        hess = curv[:, None, None] * np.eye(2) - q[:, None, None] * da[:, :, None] * da[:, None, :]
        return vals, grad, self.scale**2 * hess


def trajectory_lb_build(modes, k, p1, p2, pr, psi_r_l, psi_k_l,
                        vehicle, bs, s, hh, scale) -> TrajectoryBound:
    """Vehicle k's (1 or 2) bound rows, slot n in mode ``modes[n]``.

    A row linearizes the relaxed SINR pr * p_k * d_m around the expansion
    values (psi_r_l, psi_k_l), d_m being the reciprocal of the convexified
    denominator.  The convexifying constant is (p1+p2)*pr for the NOMA modes
    and pr*p_k for OMA, and is checked against the convexity certificate.
    ``vehicle`` holds the vehicle's (x, y) per slot and ``bs`` the base
    station's; psi is s times a squared distance with hh added.
    """
    modes = _check_modes(modes)
    p1, p2, pr = (np.asarray(v, dtype=float) for v in (p1, p2, pr))
    psi_r_l, psi_k_l = np.asarray(psi_r_l, dtype=float), np.asarray(psi_k_l, dtype=float)
    if np.any(psi_r_l <= 0) or np.any(psi_k_l <= 0):
        raise ValueError("psi expansion values must be positive")
    out = TrajectoryBound(len(modes), s, float(bs[0]), float(bs[1]), hh, scale)
    out.vx, out.vy = np.asarray(vehicle, dtype=float).T.copy()
    for m in (1, 2, 3):
        sel = modes == m
        if not np.any(sel):
            continue
        q1, q2, qr, u, w = p1[sel], p2[sel], pr[sel], psi_r_l[sel], psi_k_l[sel]
        p_k = q1 if k == 1 else q2
        b_coef = q1 + q2 if m in (1, 2) else p_k
        a, b, c, d = qr, b_coef, 1.0, qr * b_coef
        lhs, rhs = a * b, c * d
        mag = np.maximum(np.abs(lhs), np.maximum(np.abs(rhs), 1e-300))
        if np.any(np.abs(lhs - rhs) > 1e-12 * mag):
            raise ValueError("convexifying constant failed the certificate")
        den = a * u + b * w + u * w + d
        if np.any(den <= 0):
            raise ZeroDivisionError("bound denominator must be positive")
        d_m = 1.0 / den
        gamma_lb = d_m * qr * p_k
        common = d_m * d_m * qr * p_k
        d_r = -common * (qr + w)  # d(gamma)/d(psi_r) at the expansion point
        d_k = -common * (b_coef + u)  # d(gamma)/d(psi_k)
        out.cm[sel] = 0.5 if m == 3 else 1.0
        out.base[sel] = 1.0 + gamma_lb - d_r * u - d_k * w
        out.dr[sel], out.dk[sel] = d_r, d_k
    return out


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


class PowerBound:
    """Per-slot rows of one vehicle's power-side bound.

    Row n evaluates to
        cm * (log2(cu0 + cur*pr) + log2(cv0 + cv1*p1 + cv2*p2)
              - t0 - a1*p1 - a2*p2 - ar*pr),
    the vehicle's DC rate at slot n with its subtracted log term replaced by
    the tangent plane t0 + a1*p1 + a2*p2 + ar*pr.  A slot's variables are
    its (p1, p2, pr) divided by ``scale``.
    """

    COEFFS = ("cm", "cu0", "cur", "cv0", "cv1", "cv2", "t0", "a1", "a2", "ar")
    __slots__ = COEFFS + ("scale",)

    def __init__(self, n, scale):
        for name in self.COEFFS:
            setattr(self, name, np.zeros(n))
        self.scale = scale

    def sub(self, idx) -> "PowerBound":
        """The rows at ``idx``, which may repeat a slot."""
        out = PowerBound(0, self.scale)
        for name in self.COEFFS:
            setattr(out, name, getattr(self, name)[idx])
        return out

    def local(self, v, order):
        """(values, grad, hess): row values (-inf where a log argument
        leaves its domain), with ``order`` >= 1 the (m, 3) gradients and
        with ``order`` 2 the (m, 3, 3) Hessians over the scaled slot
        variables ``v``; None beyond ``order``."""
        p1, p2, pr = (v * self.scale).T
        u = self.cu0 + self.cur * pr
        w = self.cv0 + self.cv1 * p1 + self.cv2 * p2
        bad = (u <= 0.0) | (w <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lin = self.t0 + self.a1 * p1 + self.a2 * p2 + self.ar * pr
            vals = self.cm * (np.log2(u) + np.log2(w) - lin)
        vals = np.where(bad, -np.inf, vals)
        if order == 0:
            return vals, None, None
        gw = self.cm / (LN2 * w)
        grad = np.column_stack((
            self.cv1 * gw - self.cm * self.a1,
            self.cv2 * gw - self.cm * self.a2,
            self.cur * self.cm / (LN2 * u) - self.cm * self.ar,
        )) * self.scale
        if order == 1:
            return vals, grad, None
        cw = -self.cm / (LN2 * w * w)
        hess = np.zeros((len(u), 3, 3))
        hess[:, 0, 0] = cw * self.cv1 * self.cv1
        hess[:, 0, 1] = hess[:, 1, 0] = cw * self.cv1 * self.cv2
        hess[:, 1, 1] = cw * self.cv2 * self.cv2
        hess[:, 2, 2] = -self.cm * self.cur * self.cur / (LN2 * u * u)
        return vals, grad, hess * np.outer(self.scale, self.scale)


def _subtracted_slopes(mode, k, g_r, g_1, g_2, p1_l, p2_l, pr_l):
    """The subtracted log term's exact partial derivatives in (p1, p2, pr)
    at the expansion powers."""
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
    return d / LN2, t / LN2, c / LN2


def power_lb_build(modes, k, g_r, g_1, g_2, p1_l, p2_l, pr_l, scale) -> PowerBound:
    """Vehicle k's (1 or 2) bound rows, slot n in mode ``modes[n]``, around
    the expansion powers (p1_l, p2_l, pr_l).  ``scale`` holds the units of
    a slot's (p1, p2, pr) variables."""
    modes = _check_modes(modes)
    g_r, g_1, g_2 = (np.asarray(v, dtype=float) for v in (g_r, g_1, g_2))
    p1_l, p2_l, pr_l = (np.asarray(v, dtype=float) for v in (p1_l, p2_l, pr_l))
    if np.any(p1_l < 0) or np.any(p2_l < 0) or np.any(pr_l < 0):
        raise ValueError("expansion powers must be nonnegative")
    out = PowerBound(len(modes), scale)
    for m in (1, 2, 3):
        sel = modes == m
        if not np.any(sel):
            continue
        gr, g1, g2, q1, q2, qr = (v[sel] for v in (g_r, g_1, g_2, p1_l, p2_l, pr_l))
        cu0, cu_r, cv = _concave_factors(m, k, gr, g1, g2)
        _assert_ratio_condition(m, k, cu0, cu_r, cv, gr)
        d, t, c = _subtracted_slopes(m, k, gr, g1, g2, q1, q2, qr)
        out.cm[sel] = 0.5 if m == 3 else 1.0
        out.cu0[sel], out.cur[sel] = cu0, cu_r
        out.cv0[sel], out.cv1[sel], out.cv2[sel] = cv
        out.a1[sel], out.a2[sel], out.ar[sel] = d, t, c
        out.t0[sel] = _subtracted_value(m, k, gr, g1, g2, q1, q2, qr) - d * q1 - t * q2 - c * qr
    return out


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
