"""Every tier-1 entry point computes with one BLAS thread (tests/conftest.py)."""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

from guard import PINNED_ENV


def test_environment_holds_the_guards_pin():
    assert {k: os.environ.get(k) for k in PINNED_ENV} == PINNED_ENV


def test_bundled_openblas_runs_one_thread():
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        pytest.skip("numpy bundles no scipy-openblas library")
    threads = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    assert threads() == 1
