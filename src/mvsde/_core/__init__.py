"""Backend selection for the O(N^2) pairwise kernels.

Prefers the compiled C kernel (pairwise.c, built by setup.py and loaded with
ctypes) when the build produced one and falls back to the pure numpy
implementation otherwise. Both expose the same ``pair_aggregate`` contract
and are bit-identical for the exponents 0, 2 and 4; tests and the benchmark
rely on that. Set MVSDE_FORCE_FALLBACK=1 to skip the compiled kernel without
rebuilding.
"""

import ctypes
import importlib.machinery
import os

import numpy as np

from . import pairwise_py

pair_aggregate_py = pairwise_py.pair_aggregate
pair_aggregate_naive = pairwise_py.pair_aggregate_naive

_HERE = os.path.dirname(os.path.abspath(__file__))


def load_compiled(path):
    """Bind the C kernel in the shared library at path.

    Returns a function with the signature and results of
    pairwise_py.pair_aggregate. Raises OSError when the library cannot be
    loaded and AttributeError when it lacks the kernel symbol.
    """
    kernel = ctypes.CDLL(path).mvsde_pair_aggregate
    kernel.restype = None
    kernel.argtypes = ([ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t]
                       + [ctypes.c_double] * 7
                       + [ctypes.c_void_p, ctypes.c_void_p])

    def pair_aggregate(X, kf1, kfq, qf, cg, tam, te, tame_g=1.0):
        """See pairwise_py.pair_aggregate for the reference semantics."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be an (N, d) array, got shape %r"
                             % (X.shape,))
        n, d = X.shape
        f_arr = np.zeros((n, d))
        g_arr = np.zeros((n, d))
        if kf1 == 0.0 and kfq == 0.0 and cg == 0.0:
            return f_arr, g_arr
        # a CDLL call releases the GIL, so the kernel calls of reps on
        # other threads run in parallel
        kernel(X.ctypes.data, n, d, kf1, kfq, qf, cg, tam, te, tame_g,
               f_arr.ctypes.data, g_arr.ctypes.data)
        return f_arr, g_arr

    return pair_aggregate


def _built_library():
    """Path of the shared library setup.py built from pairwise.c, or None."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(_HERE, "pairwise" + suffix)
        if os.path.isfile(path):
            return path
    return None


pair_aggregate = pair_aggregate_py
_BACKEND = "numpy"
if os.environ.get("MVSDE_FORCE_FALLBACK", "") in ("", "0"):
    _path = _built_library()
    if _path is not None:
        try:
            pair_aggregate = load_compiled(_path)
            _BACKEND = "c"
        except (OSError, AttributeError):
            pass


def backend_name():
    """Identifier of the active pairwise backend: 'c' or 'numpy'."""
    return _BACKEND
