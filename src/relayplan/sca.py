"""Concave lower bounds for the SCA iterations.

Two families of bounds, one per subproblem:

* Trajectory side: rates are rewritten in psi = sigma^2/h variables; a constant
  is added to each SINR denominator so the reciprocal becomes jointly convex in
  (psi_r, psi_k) — certified by the a*b = c*d condition — and the relaxed SINR
  is then linearized around the previous iterate's psi values.

* Power side: each rate is a difference of two concave log terms in the powers
  (the DC split); linearizing the subtracted term at the previous power
  allocation leaves a concave global lower bound of the DC rate.

Power-side gains are the SINR table's, ``rates.normalized_gains`` (g = h/sigma^2,
or 2h/sigma^2 in OMA), which makes the "+1"/"+2" constants in the log
arguments exact.  ``_dc_split`` writes each (mode, vehicle) split once, its
concave log argument a product of positive affine factors by construction.

Each side has one bound type, ``TrajectoryBound`` and ``PowerBound``, built
with both vehicles' rows stacked, vehicle 1's first: of 2N rows, row i lies
in slot i mod N and in that slot's mode.  ``local`` gives the values,
gradients and Hessians the barrier maximizes; a row is -inf off its log
domain.  The bounds minorize ``convexified_rate`` and ``dc_rate_vehicle``.
"""

import itertools

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


def _expansion_powers(p1, p2, pr):
    """The expansion powers as float arrays, checked to be nonnegative."""
    p1, p2, pr = (np.asarray(v, dtype=float) for v in (p1, p2, pr))
    if np.any(p1 < 0) or np.any(p2 < 0) or np.any(pr < 0):
        raise ValueError("expansion powers must be nonnegative")
    return p1, p2, pr


def _check_modes(modes) -> np.ndarray:
    """The per-slot mode array, every entry checked to be 1, 2 or 3."""
    modes = np.asarray(modes)
    bad = modes[(modes != 1) & (modes != 2) & (modes != 3)]
    if bad.size:
        raise ValueError(f"invalid mode {bad[0]}")
    return modes


# ---- trajectory-side bounds (psi variables) ----


class TrajectoryBound:
    """Rows of the trajectory-side bound, each of one vehicle in one slot.

    A row evaluates to cm * log2(A) with
        A = base + dr * psi_r(x, y) + dk * psi_k(x, y),
    psi being the inverse-gain distance quadratics s * (|q - c|^2 + hh) to
    the base station c = (bx, by) and to the row's vehicle at its slot,
    c = (vx, vy).  dr, dk <= 0 keep A concave, so the row is concave in the
    coordinates.  A slot's variables are its (x, y) divided by ``scale``.
    """

    ROWS = ("cm", "base", "dr", "dk", "vx", "vy")
    __slots__ = ROWS + ("s", "bx", "by", "hh", "scale")

    def __init__(self, n, s, bx, by, hh, scale):
        for name in self.ROWS:
            setattr(self, name, np.zeros(n))
        self.s, self.bx, self.by, self.hh, self.scale = s, bx, by, hh, scale

    def argument(self, psi_r, psi_k):
        """A at the rows' psi values."""
        return self.base + self.dr * psi_r + self.dk * psi_k

    def local(self, v, order):
        """(values, grad, hess): row values (-inf where A <= 0), with
        ``order`` >= 1 the (m, 2) gradients and with ``order`` 2 the
        (m, 2, 2) Hessians over the scaled slot coordinates ``v``; None
        beyond ``order``."""
        x, y = (self.scale * v).T
        xb, yb, xv, yv = x - self.bx, y - self.by, x - self.vx, y - self.vy
        a = self.argument(
            self.s * (xb * xb + yb * yb + self.hh),
            self.s * (xv * xv + yv * yv + self.hh),
        )
        bad = a <= 0.0
        if bad.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(bad, -np.inf, self.cm * np.log2(a))
        else:
            vals = self.cm * np.log2(a)
        if order == 0:
            return vals, None, None
        da = np.empty((len(a), 2))  # A's gradient over (x, y)
        da[:, 0] = self.dr * xb + self.dk * xv
        da[:, 1] = self.dr * yb + self.dk * yv
        da *= 2.0 * self.s
        slope = self.cm / (LN2 * a)
        grad = self.scale * slope[:, None] * da
        if order == 1:
            return vals, grad, None
        # A's Hessian is 2 s (dr + dk) I, so the row's is curv I - q da da^T;
        # -q da da^T + curv on the diagonal gives the same bits
        curv = slope * (2.0 * self.s * (self.dr + self.dk))
        q = self.cm / (LN2 * a * a)
        hess = -q[:, None, None] * da[:, :, None] * da[:, None, :]
        hess[:, 0, 0] += curv
        hess[:, 1, 1] += curv
        hess *= self.scale**2
        return vals, grad, hess


def trajectory_lb_build(modes, p1, p2, pr, psi_r_l, psi_1_l, psi_2_l,
                        paths, bs, s, hh, scale) -> TrajectoryBound:
    """Both vehicles' bound rows, vehicle 1's first; row i in slot i mod N,
    in mode ``modes[i mod N]``.

    A row of vehicle k linearizes the relaxed SINR pr * p_k * d_m around the
    expansion values (psi_r_l, psi_k_l), d_m being the reciprocal of the
    convexified denominator.  The convexifying constant is (p1+p2)*pr for
    the NOMA modes and pr*p_k for OMA, which meets the convexity certificate
    by construction.  ``paths`` holds each vehicle's (x, y) per slot and ``bs``
    the base station's; psi is s times a squared distance with hh added.
    """
    modes = _check_modes(modes)
    n = len(modes)
    p1, p2, pr = _expansion_powers(p1, p2, pr)
    psi_l = [np.asarray(v, dtype=float) for v in (psi_r_l, psi_1_l, psi_2_l)]
    if any(np.any(v <= 0) for v in psi_l):
        raise ValueError("psi expansion values must be positive")
    out = TrajectoryBound(2 * n, s, float(bs[0]), float(bs[1]), hh, scale)
    out.vx, out.vy = np.asarray(paths, dtype=float).reshape(2 * n, 2).T.copy()
    for k, m in itertools.product((1, 2), (1, 2, 3)):
        sel = np.nonzero(modes == m)[0]
        if not len(sel):
            continue
        q1, q2, qr, u, w = p1[sel], p2[sel], pr[sel], psi_l[0][sel], psi_l[k][sel]
        rows = sel + (k - 1) * n
        p_k = q1 if k == 1 else q2
        b_coef = q1 + q2 if m in (1, 2) else p_k
        d_m = 1.0 / (qr * u + b_coef * w + u * w + qr * b_coef)
        gamma_lb = d_m * qr * p_k
        common = d_m * d_m * qr * p_k
        d_r = -common * (qr + w)  # d(gamma)/d(psi_r) at the expansion point
        d_k = -common * (b_coef + u)  # d(gamma)/d(psi_k)
        out.cm[rows] = 0.5 if m == 3 else 1.0
        out.base[rows] = 1.0 + gamma_lb - d_r * u - d_k * w
        out.dr[rows], out.dk[rows] = d_r, d_k
    return out


def convexified_rate(mode, k, p1, p2, pr, psi_r, psi_k):
    """The relaxed rate the trajectory bound minorizes (denominator factored)."""
    p_k = p1 if k == 1 else p2
    b_coef = (p1 + p2) if mode in (1, 2) else p_k
    c_m = 0.5 if mode == 3 else 1.0
    gamma = pr * p_k / ((psi_k + pr) * (psi_r + b_coef))
    return c_m * _log2p1(gamma)


# ---- power-side DC machinery (normalized gains) ----


def _dc_split(mode, k, g_r, g_1, g_2):
    """Vehicle k's DC split in ``mode``: the rate is
    cm * (log2[(cu0 + cur*pr)(cv0 + cv1*p1 + cv2*p2)] - log2 C).

    Returns ((cu0, cur, (cv0, cv1, cv2)), (c0, c1, c2, cr, c1r, c2r)), the
    concave argument's two positive affine factors and the subtracted
    argument C = c0 + c1*p1 + c2*p2 + cr*pr + c1r*p1*pr + c2r*p2*pr.  C is
    affine for the SIC vehicle and OMA; the interfered vehicle's C is
    (1 + g_k*pr)(1 + g_r*p_j), p_j the SIC vehicle's power: its exact
    denominator without the g_r*p_k term.
    """
    g_k = g_1 if k == 1 else g_2
    own = (g_r, 0.0) if k == 1 else (0.0, g_r)  # g_r on vehicle k's power
    if mode == 3:
        return (2.0, g_k, (1.0, *own)), (2.0, 2.0 * own[0], 2.0 * own[1], g_k, 0.0, 0.0)
    if mode not in (1, 2):
        raise ValueError(f"invalid mode {mode}")
    if mode == k:  # the SIC vehicle
        return (1.0, g_k, (1.0, *own)), (1.0, g_r, g_r, g_k, 0.0, 0.0)
    sic = own[::-1]  # g_r on the SIC vehicle's power
    return (1.0, g_k, (1.0, g_r, g_r)), (1.0, *sic, g_k, g_k * sic[0], g_k * sic[1])


def _log2_and_slopes(coef, p1, p2, pr):
    """log2 C at the powers, and its partials in (p1, p2, pr): dC/dp / (C ln2)."""
    c0, c1, c2, cr, c1r, c2r = coef
    c = c0 + c1 * p1 + c2 * p2 + pr * (cr + c1r * p1 + c2r * p2)
    slopes = (c1 + c1r * pr, c2 + c2r * pr, cr + c1r * p1 + c2r * p2)
    return _log2(c), tuple(d / (LN2 * c) for d in slopes)


def dc_rate_vehicle(mode, k, g_r, g_1, g_2, p1, p2, pr):
    """Per-vehicle DC rate (the function the power bound minorizes)."""
    (cu0, cur, cv), coef = _dc_split(mode, k, g_r, g_1, g_2)
    concave = _log2(cu0 + cur * pr) + _log2(cv[0] + cv[1] * p1 + cv[2] * p2)
    c_m = 0.5 if mode == 3 else 1.0
    return c_m * (concave - _log2_and_slopes(coef, p1, p2, pr)[0])


class PowerBound:
    """Rows of the power-side bound, each of one vehicle in one slot.

    A row evaluates to
        cm * (log2(cu0 + cur*pr) + log2(cv0 + cv1*p1 + cv2*p2)
              - t0 - a1*p1 - a2*p2 - ar*pr),
    the vehicle's DC rate at the slot with its subtracted log term replaced by
    the tangent plane t0 + a1*p1 + a2*p2 + ar*pr.  A slot's variables are
    its (p1, p2, pr) divided by ``scale``.
    """

    COEFFS = ("cm", "cu0", "cur", "cv0", "cv1", "cv2", "t0", "a1", "a2", "ar")
    __slots__ = COEFFS + ("scale",)

    def __init__(self, n, scale):
        for name in self.COEFFS:
            setattr(self, name, np.zeros(n))
        self.scale = scale

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
        grad = np.empty((len(u), 3))
        grad[:, 0] = self.cv1 * gw - self.cm * self.a1
        grad[:, 1] = self.cv2 * gw - self.cm * self.a2
        grad[:, 2] = self.cur * self.cm / (LN2 * u) - self.cm * self.ar
        grad *= self.scale
        if order == 1:
            return vals, grad, None
        cw = -self.cm / (LN2 * w * w)
        hess = np.zeros((len(u), 3, 3))
        hess[:, 0, 0] = cw * self.cv1 * self.cv1
        hess[:, 0, 1] = hess[:, 1, 0] = cw * self.cv1 * self.cv2
        hess[:, 1, 1] = cw * self.cv2 * self.cv2
        hess[:, 2, 2] = -self.cm * self.cur * self.cur / (LN2 * u * u)
        return vals, grad, hess * np.outer(self.scale, self.scale)


def power_lb_build(modes, g_r, g_1, g_2, p1_l, p2_l, pr_l, scale) -> PowerBound:
    """Both vehicles' bound rows around the expansion powers (p1_l, p2_l,
    pr_l), vehicle 1's first; row i in slot i mod N, in mode
    ``modes[i mod N]``.  ``scale`` holds the units of a slot's (p1, p2, pr)
    variables."""
    modes = _check_modes(modes)
    n = len(modes)
    g_r, g_1, g_2 = (np.asarray(v, dtype=float) for v in (g_r, g_1, g_2))
    p1_l, p2_l, pr_l = _expansion_powers(p1_l, p2_l, pr_l)
    out = PowerBound(2 * n, scale)
    for k, m in itertools.product((1, 2), (1, 2, 3)):
        sel = np.nonzero(modes == m)[0]
        if not len(sel):
            continue
        q1, q2, qr = p1_l[sel], p2_l[sel], pr_l[sel]
        rows = sel + (k - 1) * n
        (cu0, cu_r, cv), coef = _dc_split(m, k, g_r[sel], g_1[sel], g_2[sel])
        value, (d, t, c) = _log2_and_slopes(coef, q1, q2, qr)
        out.cm[rows] = 0.5 if m == 3 else 1.0
        out.cu0[rows], out.cur[rows] = cu0, cu_r
        out.cv0[rows], out.cv1[rows], out.cv2[rows] = cv
        out.a1[rows], out.a2[rows], out.ar[rows] = d, t, c
        out.t0[rows] = value - d * q1 - t * q2 - c * qr
    return out
