"""Test-session setup shared by every test directory.

BLAS and OpenMP pools are pinned to one thread before anything imports
numpy (pytest loads this file first, and numpy reads these variables when
it loads its BLAS), as perfbench/run.py does: the tests then run the
benchmark's arithmetic, and training's helper thread does not share the
cores with a BLAS pool.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
