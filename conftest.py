"""Test-run settings that must be in place before anything imports numpy.

The BLAS under numpy is held to one thread: its idle worker threads slow the
numeric tests many times over when another process keeps a CPU busy.  This
file sits at the root because pytest collects ``perfbench/`` first, and its
oracle imports numpy before ``tests/conftest.py`` is loaded.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
