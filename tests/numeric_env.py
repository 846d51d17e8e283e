"""The numeric environment that the tests' exactness digests depend on.

A float64 GEMM's last bits depend on OpenBLAS's core type and thread count,
so each digest in the tests sits next to the environment it was recorded
in, and a mismatch names both environments before the sha. The session
pins the thread count (`conftest.py`); no digest can hold across core
types, but a failure then says why.
"""

import ctypes
import glob
import os

import numpy as np

# every digest in the tests was recorded at this count, OpenBLAS's default
# on the 2-core host that recorded them
DIGEST_THREADS = 2


def _openblas():
    """The OpenBLAS that NumPy loaded, or None under another BLAS build.
    NumPy's wheels bundle it as numpy.libs/libscipy_openblas64_*; loading
    that file again returns the loaded library, so its thread pool is NumPy's."""
    found = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    if not found:
        return None
    lib = ctypes.CDLL(found[0])
    lib.scipy_openblas_get_corename64_.argtypes = []
    lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


def pin_threads(count: int) -> None:
    """Set NumPy's OpenBLAS thread count, whatever OPENBLAS_NUM_THREADS said
    when it loaded; a no-op under another BLAS, which `environment` names."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(count)


def environment() -> dict:
    """NumPy's version and its OpenBLAS core and thread count (None for both
    under another BLAS)."""
    lib = _openblas()
    return {
        "numpy": np.__version__,
        "blas_core": None if lib is None else lib.scipy_openblas_get_corename64_().decode(),
        "blas_threads": None if lib is None else lib.scipy_openblas_get_num_threads64_(),
    }


def digest_context(recorded: dict) -> str:
    """The failure message of a digest assertion: where the digest was
    recorded and where it was checked, ahead of pytest's sha comparison."""
    return f"digest recorded in {recorded}, checked in {environment()}"
