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
arguments exact.  Like the table, ``_dc_split`` writes the split once per
row role (OMA, the SIC vehicle, the interfered vehicle) over the row's own,
other and relay power (a, b, r), its concave log argument a product of
positive affine factors by construction.

Each side has one bound type, ``TrajectoryBound`` and ``PowerBound``, built
with both vehicles' rows stacked, vehicle 1's first: of 2N rows, row i lies
in slot i mod N and in that slot's mode.  A power row reads its slot's
powers as (own, other, relay), so vehicle 2's rows read (p2, p1, pr).
``local`` gives the values, gradients and Hessians the barrier maximizes; a
row is -inf off its log domain.  The bounds minorize ``convexified_rate``
and ``dc_rate_vehicle``.
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


def _expansion_powers(p1, p2, pr):
    """The expansion powers as float arrays, checked to be nonnegative."""
    p1, p2, pr = (np.asarray(v, dtype=float) for v in (p1, p2, pr))
    if (np.concatenate([p1, p2, pr], axis=None) < 0).any():
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

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def argument(self, psi_r, psi_k):
        """A at the rows' psi values."""
        return self.base + self.dr * psi_r + self.dk * psi_k

    def local(self, v):
        """(values, grad, hess): row values (-inf where A <= 0), the
        (m, 2) gradients and the (m, 2, 2) Hessians over the scaled slot
        coordinates ``v``."""
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
        da = np.empty((len(a), 2))  # A's gradient over (x, y)
        da[:, 0] = self.dr * xb + self.dk * xv
        da[:, 1] = self.dr * yb + self.dk * yv
        da *= 2.0 * self.s
        slope = self.cm / (LN2 * a)
        grad = self.scale * slope[:, None] * da
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
    if (np.concatenate(psi_l, axis=None) <= 0).any():
        raise ValueError("psi expansion values must be positive")
    oma, p_k = np.concatenate([modes, modes]) == 3, np.concatenate([p1, p2])
    qr, u, w = np.concatenate([pr, pr]), np.concatenate(psi_l[:1] * 2), np.concatenate(psi_l[1:])
    b_coef = np.where(oma, p_k, np.concatenate([p1 + p2] * 2))
    d_m = 1.0 / (qr * u + b_coef * w + u * w + qr * b_coef)
    gamma_lb = d_m * qr * p_k
    common = d_m * d_m * qr * p_k
    d_r = -common * (qr + w)  # d(gamma)/d(psi_r) at the expansion point
    d_k = -common * (b_coef + u)  # d(gamma)/d(psi_k)
    vx, vy = np.asarray(paths, dtype=float).reshape(2 * n, 2).T.copy()
    return TrajectoryBound(
        cm=np.where(oma, 0.5, 1.0), base=1.0 + gamma_lb - d_r * u - d_k * w, dr=d_r,
        dk=d_k, vx=vx, vy=vy, s=s, bx=float(bs[0]), by=float(bs[1]), hh=hh, scale=scale,
    )


def convexified_rate(mode, k, p1, p2, pr, psi_r, psi_k):
    """The relaxed rate the trajectory bound minorizes (denominator factored)."""
    p_k = p1 if k == 1 else p2
    b_coef = (p1 + p2) if mode in (1, 2) else p_k
    c_m = 0.5 if mode == 3 else 1.0
    gamma = pr * p_k / ((psi_k + pr) * (psi_r + b_coef))
    return c_m * _log2p1(gamma)


# ---- power-side DC machinery (normalized gains) ----


def _dc_split(oma, sic, g_r, g_k):
    """The DC split of rows by role over their own, other and relay power
    (a, b, r): the rate is cm * (log2[(cu0 + g_k*r)(1 + g_r*a + cv_b*b)] -
    log2 C) with C = c0 + c_a*a + c_b*b + r*(c_r + c_br*b), returned as
    ((cu0, cv_b), (c0, c_a, c_b, c_r, c_br)).  ``oma`` and ``sic`` mark the
    OMA and SIC vehicle's rows; the others are the interfered vehicle's:

        role                 cu0  cv_b  C
        OMA                  2    0     2 + 2 g_r a + g_k r          (the table's D)
        SIC vehicle          1    0     1 + g_r a + g_r b + g_k r    (D)
        interfered vehicle   1    g_r   (1 + g_k r)(1 + g_r b)       (D - g_r a)
    """
    interfered = ~np.logical_or(oma, sic)
    cu0 = np.where(oma, 2.0, 1.0)
    c_a = np.where(oma, 2.0 * g_r, np.where(sic, g_r, 0.0))
    c_b = np.where(oma, 0.0, g_r)
    c_br = np.where(interfered, g_k * g_r, 0.0)
    return (cu0, np.where(interfered, g_r, 0.0)), (cu0, c_a, c_b, g_k, c_br)


def _log2_and_slopes(coef, a, b, r):
    """log2 C at the powers, and its partials in (a, b, r): dC/dp / (C ln2)."""
    c0, c_a, c_b, c_r, c_br = coef
    c = c0 + c_a * a + c_b * b + r * (c_r + c_br * b)
    slopes = (c_a, c_b + c_br * r, c_r + c_br * b)
    return _log2(c), tuple(d / (LN2 * c) for d in slopes)


def dc_rate_vehicle(mode, k, g_r, g_1, g_2, p1, p2, pr):
    """Per-vehicle DC rate (the function the power bound minorizes)."""
    _check_modes(mode)
    g_k, a, b = (g_1, p1, p2) if k == 1 else (g_2, p2, p1)
    (cu0, cv_b), coef = _dc_split(mode == 3, mode == k, g_r, g_k)
    concave = _log2(cu0 + g_k * pr) + _log2(1.0 + g_r * a + cv_b * b)
    c_m = 0.5 if mode == 3 else 1.0
    return c_m * (concave - _log2_and_slopes(coef, a, b, pr)[0])


class PowerBound:
    """Rows of the power-side bound, each of one vehicle in one slot.

    A row reads its own, the other vehicle's and the relay power (a, b, r),
    divided by ``scale``, and evaluates to
        cm * (log2(cu0 + g_k*r) + log2(1 + g_r*a + cv_b*b) - t0 - t_a*a - t_b*b - t_r*r),
    the vehicle's DC rate at the slot (``_dc_split``) with its subtracted
    log term replaced by the tangent plane t0 + t_a*a + t_b*b + t_r*r.
    """

    COEFFS = ("cm", "cu0", "g_r", "g_k", "cv_b", "t0", "t_a", "t_b", "t_r")
    __slots__ = COEFFS + ("scale",)

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def local(self, v):
        """(values, grad, hess): row values (-inf where a log argument
        leaves its domain), the (m, 3) gradients and the (m, 3, 3)
        Hessians over the scaled row variables ``v``."""
        a, b, r = (v * self.scale).T
        u = self.cu0 + self.g_k * r
        w = 1.0 + self.g_r * a + self.cv_b * b
        bad = (u <= 0.0) | (w <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lin = self.t0 + self.t_a * a + self.t_b * b + self.t_r * r
            vals = self.cm * (np.log2(u) + np.log2(w) - lin)
        vals = np.where(bad, -np.inf, vals)
        gw = self.cm / (LN2 * w)
        grad = np.empty((len(u), 3))
        grad[:, 0] = self.g_r * gw - self.cm * self.t_a
        grad[:, 1] = self.cv_b * gw - self.cm * self.t_b
        grad[:, 2] = self.g_k * self.cm / (LN2 * u) - self.cm * self.t_r
        grad *= self.scale
        cw = -self.cm / (LN2 * w * w)
        hess = np.zeros((len(u), 3, 3))
        hess[:, 0, 0] = cw * self.g_r * self.g_r
        hess[:, 0, 1] = hess[:, 1, 0] = cw * self.g_r * self.cv_b
        hess[:, 1, 1] = cw * self.cv_b * self.cv_b
        hess[:, 2, 2] = -self.cm * self.g_k * self.g_k / (LN2 * u * u)
        return vals, grad, hess * np.outer(self.scale, self.scale)


def power_lb_build(modes, g_r, g_1, g_2, p1_l, p2_l, pr_l, scale) -> PowerBound:
    """Both vehicles' bound rows around the expansion powers (p1_l, p2_l,
    pr_l), vehicle 1's first; row i in slot i mod N, in mode
    ``modes[i mod N]``, reading (p1, p2, pr) for vehicle 1 and (p2, p1, pr)
    for vehicle 2.  ``scale`` holds the units of a row's (a, b, r)."""
    modes = _check_modes(modes)
    p1_l, p2_l, pr_l = _expansion_powers(p1_l, p2_l, pr_l)
    oma, sic = np.concatenate([modes, modes]) == 3, np.concatenate([modes == 1, modes == 2])
    a, b, r = np.concatenate([p1_l, p2_l]), np.concatenate([p2_l, p1_l]), np.concatenate([pr_l, pr_l])
    g_r, g_k = np.concatenate([g_r, g_r], dtype=float), np.concatenate([g_1, g_2], dtype=float)
    (cu0, cv_b), coef = _dc_split(oma, sic, g_r, g_k)
    value, (t_a, t_b, t_r) = _log2_and_slopes(coef, a, b, r)
    return PowerBound(
        cm=np.where(oma, 0.5, 1.0), cu0=cu0, g_r=g_r, g_k=g_k, cv_b=cv_b,
        t0=value - t_a * a - t_b * b - t_r * r, t_a=t_a, t_b=t_b, t_r=t_r, scale=scale,
    )
