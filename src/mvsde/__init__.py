"""Tamed Euler particle schemes for measure-dependent SDEs.

The package simulates interacting particle systems whose drift and
diffusion depend on the empirical measure, either through averaged
interaction kernels or through direct functionals of the particle
cloud.  All schemes are fully explicit; superlinear coefficients are
handled by taming, never by implicit solves.

Layout
------
model        coefficient families and the scheme's coefficient algebra
taming       taming variants and their parameters
rng          counter-based Brownian tableau, refinement-coupled
ensemble     particle-cloud container and empirical statistics
scheme       one-step maps and the simulation loop
metrics      Wasserstein-2 estimators and rate fitting
probes       numerical checks of the structural inequalities
experiments  convergence / stability / contraction drivers
config       INI config grammar, validation, canonical emission
cli          the `mvsde` command-line entry point

Importing the package first loads NumPy with its OpenBLAS capped at one
thread, and the two lazy SciPy imports (the NumPy backend's ndtri and
exact-assignment W2) load SciPy's OpenBLAS under the same cap, unless the
module is already loaded or OPENBLAS_NUM_THREADS is set: the pool OpenBLAS
would start spins on a CPU the repetitions could use, and the one BLAS
call, sliced W2's matrix-vector product, gives the same bytes on one
thread. The environment is restored right after each import.
"""

import importlib as _importlib
import os as _os
import sys as _sys


def _import_on_one_blas_thread(name):
    """importlib.import_module(name), with OPENBLAS_NUM_THREADS=1 set for
    the import when name is not yet loaded and the variable is unset;
    OpenBLAS reads it once, when the module loads it."""
    if name in _sys.modules or "OPENBLAS_NUM_THREADS" in _os.environ:
        return _importlib.import_module(name)
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return _importlib.import_module(name)
    finally:
        # pop: a rep thread importing at the same time may have removed it
        _os.environ.pop("OPENBLAS_NUM_THREADS", None)


_import_on_one_blas_thread("numpy")

from ._core import backend_name
from ._version import VERSION as __version__
from .config import emit_config, theoretical_constants
from .metrics import EXACT_ASSIGNMENT_CAP, w2
from .model import make_model
from .taming import TamedModel

# the names the README documents; everything else is reached through
# its submodule
__all__ = [
    "EXACT_ASSIGNMENT_CAP", "TamedModel", "backend_name", "emit_config",
    "make_model", "theoretical_constants", "w2", "__version__",
]
