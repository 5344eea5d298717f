"""Suite-wide setup, run before any test module imports numpy.

BLAS/OpenMP pools are held to one thread, as in ``relaybench/run.py``.  The
Newton systems are small, and extra OpenBLAS threads oversubscribe the
cores when another process shares the machine, which slowed the 50-slot
solves past the wall-time bound of ``test_drivers_converge_quickly``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
