"""The numeric environment that the tests' exactness digests depend on.

A float64 GEMM's last bits depend on OpenBLAS's core type and thread count,
so every digest in the tests was recorded in one environment, RECORDED, and
a mismatch names it and this host's before the sha. The session pins the
thread count to the product's (`conftest.py`, `cli.BLAS_THREADS`); no digest
can hold across core types, but a failure then says why.
"""

import ctypes

import numpy as np

from attnmask.cli import _openblas

# where every digest in the tests was recorded
RECORDED = {"numpy": "2.4.6", "blas_core": "SkylakeX", "blas_threads": 1}


def environment() -> dict:
    """NumPy's version and its OpenBLAS core and thread count (None for both
    under another BLAS)."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_get_corename64_.argtypes = []
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    return {
        "numpy": np.__version__,
        "blas_core": None if lib is None else lib.scipy_openblas_get_corename64_().decode(),
        "blas_threads": None if lib is None else lib.scipy_openblas_get_num_threads64_(),
    }


def digest_context() -> str:
    """The failure message of a digest assertion: where the digests were
    recorded and where this one was checked, ahead of pytest's sha comparison."""
    return f"digest recorded in {RECORDED}, checked in {environment()}"
