"""Exact per-slot rates of the three operating modes, read from one SINR table.

Modes 1 and 2 are NOMA with SIC at vehicle 1 or vehicle 2 respectively; mode 3
is OMA (FDMA with the band split evenly, per-subband noise sigma_O^2 = sigma^2/2
and half the relay power per vehicle).  Over normalised gains, g = h/sigma^2 in
modes 1 and 2 and g = h/sigma_O^2 in OMA, vehicle k's rate is
c_m log2(1 + S/D) with S = (pr g_k)(g_r p_k), j being the other vehicle:

    row                    c_m   D
    OMA                    1/2   2 + 2 g_r p_k + g_k pr
    SIC vehicle (mode k)   1     1 + g_k pr + g_r (p_k + p_j)
    interfered vehicle     1     1 + g_k pr + g_r (p_k + p_j) + (pr g_k)(g_r p_j)

The table's products stay normal floats at tiny powers.  Callers pass raw
gains and the full-band sigma^2; only ``normalized_gains`` divides by the
noise.  All functions broadcast over numpy arrays.
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


def normalized_gains(modes, sigma2, *gains):
    """Each raw gain over its slot's noise power under the per-slot ``modes``."""
    scale = np.where(np.asarray(modes) == 3, 2.0, 1.0) / sigma2
    return tuple(scale * h for h in gains)


def _row(mode, k, g_r, g_k, p_k, p_j, pr):
    """(c_m, S, D) of vehicle k in ``mode``, over normalised gains."""
    relayed = pr * g_k
    sent = g_r * p_k
    if mode == 3:
        return 0.5, relayed * sent, 2.0 + 2.0 * sent + relayed
    floor = 1.0 + relayed + g_r * (p_k + p_j)
    if mode != k:  # the interfered vehicle also hears the other message
        floor = floor + relayed * (g_r * p_j)
    return 1.0, relayed * sent, floor


def _rate(cm, signal, floor):
    return cm * _log2p1(signal / floor)


def sinr_table(mode, h_r, h_1, h_2, p1, p2, pr, sigma2):
    """The rows (c_m, S, D) of vehicles 1 and 2 in one mode."""
    if mode not in (1, 2, 3):
        raise ValueError(f"invalid mode {mode}")
    _check_powers(p1, p2, pr)
    g_r, g_1, g_2 = normalized_gains(mode, sigma2, h_r, h_1, h_2)
    return _row(mode, 1, g_r, g_1, p1, p2, pr), _row(mode, 2, g_r, g_2, p2, p1, pr)


def oma_rate(h_r, h_k, p_k, pr, sigma2):
    """One vehicle's OMA rate; it reads only that vehicle's gain and power."""
    _check_powers(p_k, pr)
    g_r, g_k = normalized_gains(3, sigma2, h_r, h_k)
    return _rate(*_row(3, 1, g_r, g_k, p_k, 0.0, pr))


def rates_for_mode(mode, h_r, h_1, h_2, p1, p2, pr, sigma2) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized (R1, R2) for a single mode; sigma2 is the full noise power."""
    row1, row2 = sinr_table(mode, h_r, h_1, h_2, p1, p2, pr, sigma2)
    return _rate(*row1), _rate(*row2)


def exact_rates(modes: np.ndarray, h_r, h_1, h_2, p1, p2, pr, sigma2) -> Tuple[np.ndarray, np.ndarray]:
    """Per-slot (R1, R2) arrays under a per-slot mode array."""
    modes = np.asarray(modes)
    r1 = np.zeros(modes.shape, dtype=float)
    r2 = np.zeros(modes.shape, dtype=float)
    h_r, h_1, h_2, p1, p2, pr = np.broadcast_arrays(h_r, h_1, h_2, p1, p2, pr)
    for m in (1, 2, 3):
        sel = modes == m
        if np.any(sel):
            r1[sel], r2[sel] = rates_for_mode(m, h_r[sel], h_1[sel], h_2[sel], p1[sel], p2[sel], pr[sel], sigma2)
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
