"""Suite-wide setup, run before any test module imports numpy.

BLAS/OpenMP pools are held to one thread, as in ``relaybench/run.py``.  The
Newton systems are small, and extra OpenBLAS threads oversubscribe the
cores when another process shares the machine, which slowed the 50-slot
solves past the wall-time bound of ``test_drivers_converge_quickly``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)
import pytest  # noqa: E402


@pytest.fixture
def dense_system():
    """The matrix a ``barrier.NewtonSystem`` stands for, made dense."""

    def dense(system):
        nb, nk = system.border.shape
        out = np.zeros((nb + nk, nb + nk))
        for i, diag in enumerate(system.band):
            j = np.arange(nb - i)
            out[j + i, j] = out[j, j + i] = diag[: nb - i]
        out[:nb, nb:] = system.border
        out[nb:, :nb] = system.border.T
        out[nb:, nb:] = system.corner
        return out + system.lowrank @ system.lowrank.T

    return dense
