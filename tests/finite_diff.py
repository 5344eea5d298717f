"""Central-difference derivative probes, the references that the barrier
blocks' analytic gradients and Hessians are checked against."""

from typing import Callable

import numpy as np


def finite_diff_gradient(fn: Callable, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    A coordinate whose probe raises or returns a non-finite value is reported
    as nan, so callers can see exactly which directions were undefined instead
    of getting one opaque failure.
    """
    x = np.array(x, dtype=float)
    grad = np.full(x.shape, np.nan)
    flat_g = grad.ravel()
    for i in range(x.size):
        probe = x.copy().ravel()
        base = probe[i]
        probe[i] = base + step
        try:
            fp = float(fn(probe.reshape(x.shape)))
            probe[i] = base - step
            fm = float(fn(probe.reshape(x.shape)))
        except Exception:
            continue
        if np.isfinite(fp) and np.isfinite(fm):
            flat_g[i] = (fp - fm) / (2.0 * step)
    return grad


def finite_diff_hessian(fn: Callable, x, step: float = 1e-4) -> np.ndarray:
    """Symmetric central second differences of a scalar function."""
    x = np.array(x, dtype=float).ravel()
    n = x.size
    f0 = float(fn(x))
    hess = np.empty((n, n))

    def at(*bumps):
        probe = x.copy()
        for i, d in bumps:
            probe[i] += d
        return float(fn(probe))

    for i in range(n):
        hess[i, i] = (at((i, step)) - 2.0 * f0 + at((i, -step))) / step**2
        for j in range(i + 1, n):
            mixed = (
                at((i, step), (j, step))
                - at((i, step), (j, -step))
                - at((i, -step), (j, step))
                + at((i, -step), (j, -step))
            ) / (4.0 * step**2)
            hess[i, j] = hess[j, i] = mixed
    return hess
