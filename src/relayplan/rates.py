"""Exact per-slot SINR and rate formulas for the three operating modes.

Modes 1 and 2 are NOMA with SIC at vehicle 1 or vehicle 2 respectively; mode 3
is OMA (FDMA with the band split evenly, per-subband noise sigma_O^2 = sigma^2/2
and half the relay power per vehicle).  All functions accept scalars or numpy
arrays and broadcast.  Rates use log1p so near-zero SINRs keep precision.
"""

from typing import Tuple

import numpy as np

LN2 = np.log(2.0)


def _log2p1(x):
    """log2(1 + x) via log1p."""
    return np.log1p(x) / LN2


def _check_powers(*powers):
    for p in powers:
        if np.any(np.asarray(p) < 0):
            raise ValueError("powers must be nonnegative")


def rate_mode1(h_r, h_1, h_2, p1, p2, pr, sigma2) -> Tuple[np.ndarray, np.ndarray]:
    """Rates (R1, R2) with SIC at vehicle 1.

    Vehicle 1 decodes free of interference; vehicle 2's SINR carries p1 as
    interference.  Mode-1 semantics assume h_1 > h_2 but that is the mode
    policy's concern, not enforced here.
    """
    _check_powers(p1, p2, pr)
    s = p1 + p2
    noise1 = pr * h_1 * sigma2 + s * h_r * sigma2 + sigma2**2
    sinr1 = pr * h_1 * h_r * p1 / noise1
    noise2 = pr * h_2 * sigma2 + s * h_r * sigma2 + sigma2**2
    sinr2 = pr * h_2 * h_r * p2 / (pr * h_2 * h_r * p1 + noise2)
    return _log2p1(sinr1), _log2p1(sinr2)


def rate_mode2(h_r, h_1, h_2, p1, p2, pr, sigma2) -> Tuple[np.ndarray, np.ndarray]:
    """Rates (R1, R2) with SIC at vehicle 2 (mirror image of mode 1)."""
    r2, r1 = rate_mode1(h_r, h_2, h_1, p2, p1, pr, sigma2)
    return r1, r2


def rate_mode3(h_r, h_k, p_k, pr, sigma_o2):
    """Per-vehicle OMA rate with per-subband noise power sigma_o2."""
    _check_powers(p_k, pr)
    den = pr * h_k * sigma_o2 + 2 * p_k * h_r * sigma_o2 + 2 * sigma_o2**2
    return 0.5 * _log2p1(pr * h_k * h_r * p_k / den)


def rates_for_mode(mode, h_r, h_1, h_2, p1, p2, pr, sigma2) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized (R1, R2) for a single mode; sigma2 is the full noise power."""
    if mode == 1:
        return rate_mode1(h_r, h_1, h_2, p1, p2, pr, sigma2)
    if mode == 2:
        return rate_mode2(h_r, h_1, h_2, p1, p2, pr, sigma2)
    if mode == 3:
        so2 = 0.5 * sigma2
        return rate_mode3(h_r, h_1, p1, pr, so2), rate_mode3(h_r, h_2, p2, pr, so2)
    raise ValueError(f"invalid mode {mode}")


def exact_rates(modes: np.ndarray, h_r, h_1, h_2, p1, p2, pr, sigma2) -> Tuple[np.ndarray, np.ndarray]:
    """Per-slot (R1, R2) arrays under a per-slot mode array."""
    modes = np.asarray(modes)
    r1 = np.zeros(modes.shape, dtype=float)
    r2 = np.zeros(modes.shape, dtype=float)
    h_r, h_1, h_2, p1, p2, pr = np.broadcast_arrays(h_r, h_1, h_2, p1, p2, pr)
    for m in (1, 2, 3):
        sel = modes == m
        if np.any(sel):
            a, b = rates_for_mode(m, h_r[sel], h_1[sel], h_2[sel], p1[sel], p2[sel], pr[sel], sigma2)
            r1[sel], r2[sel] = a, b
    return r1, r2


# ---- high-SNR closed forms ----


def _harmonic(a, b):
    return a * b / (a + b)


def high_snr_rates(scheme: str, objective: str, hr_inf, h1_inf, h2_inf, p1, p2):
    """Closed-form high-SNR rate approximations.

    Gains carry the transmit SNR (h_inf = (P/sigma^2) h) so powers here are the
    normalized shares with p1 + p2 = 1, pr = 1.  The NOMA forms assume
    h1_inf > h2_inf (SIC at vehicle 1).
    """
    if scheme == "NOMA":
        if objective == "sum":
            return _log2p1(_harmonic(h1_inf, hr_inf))
        if objective == "min":
            if np.any(np.asarray(p1) >= np.asarray(p2)):
                raise ValueError("NOMA min-rate form needs p1 < p2 (SIC power ordering)")
            return np.log2(p2 / p1)
    elif scheme == "OMA":
        if objective == "sum":
            return 0.5 * (_log2p1(_harmonic(h1_inf, hr_inf)) + _log2p1(_harmonic(h2_inf, hr_inf)))
        if objective == "min":
            return 0.5 * np.log2(_harmonic(h2_inf, hr_inf))
    raise ValueError(f"unknown scheme/objective {scheme}/{objective}")
