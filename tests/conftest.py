import os

# Before numpy first loads: the BLAS thread count changes output bytes, and
# OpenBLAS reads it once, when it loads. The same pin as tests/guard.py's
# PINNED_ENV and perfbench's, so `pytest tests/...` and every run of
# tests/mutants.py compute as the guard's children do.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
